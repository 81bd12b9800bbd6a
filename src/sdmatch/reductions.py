"""Executable reductions: CNF satisfiability to SDM, and SDM to the
two-graph disjoint-matchings problem, with certificate translation both ways.

Gadget layout for the CNF reduction of s clauses over t variables: per
variable i a cycle of length 4s (vertices v_{i,1}..v_{i,4s}; even positions
on the X side), per clause k an edge w_k z_k with w_k on the X side. A
clause touches the cycles only at the odd positions 4k-3 (positive literal)
and 4k-1 (negative literal).

Vertex numbering, in closed form with c = 2s, b = (i-1)c, 1-based i and k,
and 0 <= q < c: v_{i,2q+2} is X vertex b+q and v_{i,2q+1} is Y vertex b+q,
so X vertex b+q has the cycle neighbours b+q and b+(q+1) mod c. Then
w_k = z_k = ct+k-1; literal +i joins w_k to Y b+2k-2, and -i to Y b+2k-1.
S is {b+2q : q < s} (positions 2, 6, ..., 4s-2) plus every w_k. On cycle i
the value-true pair is M1 = {(b+q, b+q)}, M2 = {(b+2q, b+2q+1) : q < s},
and the value-false pair M1 = {(b+q, b+(q+1) mod c)}, M2 = {(b+2q, b+2q)}.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from .graph import (
    BipartiteGraph,
    DmInstance,
    FormatError,
    Matching,
    SdmInstance,
    SPair,
    content_lines,
    int_fields,
    is_matching,
    verify_spair,
)


class CnfFormula(NamedTuple):
    """Clauses in DIMACS literal convention: +v / -v, variables 1..num_vars."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    @staticmethod
    def make(num_vars: int, clauses: Iterable[Iterable[int]]) -> "CnfFormula":
        if num_vars < 0:
            raise ValueError(f"negative variable count: {num_vars}")
        cleaned = []
        for clause in clauses:
            lits = []
            for lit in clause:
                if lit == 0 or abs(lit) > num_vars:
                    raise ValueError(f"literal out of range: {lit}")
                if lit not in lits:
                    lits.append(lit)
            if not lits:
                raise ValueError("empty clause")
            if len(lits) > 3:
                raise ValueError(f"clause arity {len(lits)} exceeds 3")
            cleaned.append(tuple(lits))
        return CnfFormula(num_vars, tuple(cleaned))


def parse_dimacs_cnf(text: str) -> CnfFormula:
    num_vars = num_clauses = -1
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, line in content_lines(text):
        if line.startswith("p"):
            if num_vars >= 0:  # a header was read already
                raise FormatError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"]:
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            num_vars, num_clauses = int_fields(parts[2:], lineno, "non-integer header counts")
            if num_vars < 0 or num_clauses < 0:
                raise FormatError(f"line {lineno}: negative header counts")
            continue
        if num_vars < 0:
            raise FormatError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad literal {tok!r}") from exc
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                if abs(lit) > num_vars:
                    raise FormatError(f"line {lineno}: literal {lit} out of range")
                current.append(lit)
    if num_vars < 0:
        raise FormatError("missing p cnf header")
    if current:
        raise FormatError("clause missing 0 terminator")
    if len(clauses) != num_clauses:
        raise FormatError(
            f"clause count mismatch: header says {num_clauses}, found {len(clauses)}"
        )
    try:
        return CnfFormula.make(num_vars, clauses)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def _cycle_len(formula: CnfFormula) -> int:
    """c = 2s, the X (and the Y) vertex count of each variable cycle; a
    formula with no clauses has no gadget."""
    if not formula.clauses:
        raise ValueError("formula has no clauses (trivially satisfiable)")
    return 2 * len(formula.clauses)


def _literal_y(c: int, k: int, lit: int) -> int:
    """The Y vertex that clause k's literal lit joins on its variable's cycle."""
    return (abs(lit) - 1) * c + 2 * k - 2 + (lit < 0)


def reduce_3sat_to_sdm(formula: CnfFormula) -> SdmInstance:
    """Build the gadget instance: per-variable cycles, per-clause edges,
    plus one literal edge for each occurrence."""
    c = _cycle_len(formula)
    ct = c * formula.num_vars
    rows: list[tuple[int, ...]] = []
    for b in range(0, ct, c):
        # X vertex b+q sees Y b+q and b+q+1; the last one wraps to Y b
        rows.extend(zip(range(b, b + c - 1), range(b + 1, b + c)))
        rows.append((b, b + c - 1))
    for k, clause in enumerate(formula.clauses, start=1):
        rows.append((*sorted({_literal_y(c, k, lit) for lit in clause}), ct + k - 1))
    n = ct + len(formula.clauses)
    graph = BipartiteGraph(n, n, tuple(rows))
    # S: the even X vertices of the cycles (b+2q, q < s), then every w_k
    return SdmInstance.make(graph, chain(range(0, ct, 2), range(ct, n)))


def _true_false_edges(c: int, i: int) -> tuple[tuple[Iterator, Iterator], ...]:
    """The (M1, M2) edges of the value-true and the value-false pair on cycle
    i of length 2c, each a one-pass iterator of (x, y) pairs."""
    b = (i - 1) * c
    xs, s_xs = range(b, b + c), range(b, b + c, 2)
    return ((zip(xs, xs), zip(s_xs, range(b + 1, b + c, 2))),
            (zip(xs, chain(range(b + 1, b + c), (b,))), zip(s_xs, s_xs)))


def true_false_pairs(formula: CnfFormula, i: int) -> tuple[SPair, SPair]:
    """The two possible pairs on cycle i: value-true and value-false."""
    c = _cycle_len(formula)
    if not 1 <= i <= formula.num_vars:
        raise ValueError(f"variable index out of range: {i}")
    return tuple(SPair(Matching.from_edges(m1), Matching.from_edges(m2))
                 for m1, m2 in _true_false_edges(c, i))


def decode_spair_to_assignment(formula: CnfFormula, spair: SPair) -> dict[int, bool]:
    """Read off the variable values from which pair each cycle carries, and
    refuse them unless they satisfy every clause of the formula."""
    c = _cycle_len(formula)
    m1, m2 = spair.m1.edge_set, spair.m2.edge_set
    values: dict[int, bool] = {}
    for i in range(1, formula.num_vars + 1):
        for value, (pair_m1, pair_m2) in zip((True, False), _true_false_edges(c, i)):
            if m1.issuperset(pair_m1) and m2.issuperset(pair_m2):
                values[i] = value
                break
        else:
            raise ValueError(f"cycle {i} carries neither the true nor the false pair")
    for k, clause in enumerate(formula.clauses, start=1):
        if not any(values[abs(lit)] == (lit > 0) for lit in clause):
            raise ValueError(f"decoded assignment does not satisfy clause {k}")
    return values


def encode_assignment_to_spair(formula: CnfFormula, assignment: dict[int, bool]) -> SPair:
    """Build a certificate from a satisfying assignment.

    Clause witness: the lowest-index variable satisfying the clause.
    """
    c = _cycle_len(formula)
    m1: list[tuple[int, int]] = []
    m2: list[tuple[int, int]] = []
    for i in range(1, formula.num_vars + 1):
        if i not in assignment:
            raise ValueError(f"assignment has no value for variable {i}")
        true_pair, false_pair = true_false_pairs(formula, i)
        pair = true_pair if assignment[i] else false_pair
        m1.extend(pair.m1.edges)
        m2.extend(pair.m2.edges)
    for k, clause in enumerate(formula.clauses, start=1):
        lit = min((lit for lit in clause if assignment[abs(lit)] == (lit > 0)),
                  key=abs, default=0)
        if not lit:
            raise ValueError(f"assignment does not satisfy clause {k}")
        w = c * formula.num_vars + k - 1
        m1.append((w, w))
        m2.append((w, _literal_y(c, k, lit)))
    return SPair(Matching.from_edges(m1), Matching.from_edges(m2))


# ---------------------------------------------------------------------------
# SDM -> DM


def reduce_sdm_to_dm(instance: SdmInstance) -> DmInstance:
    """G1 = G; G2 = G plus every edge from X-S to Y: an S row is G's own,
    every other row is all of Y."""
    g = instance.graph
    if len(instance.s_set) >= g.nx - 1:
        raise ValueError("reduction requires |S| < |X|-1; use the polynomial solver")
    in_s = set(instance.s_set)
    all_y = tuple(range(g.ny))
    rows = tuple(row if x in in_s else all_y for x, row in enumerate(g.adj))
    return DmInstance(g, BipartiteGraph(g.nx, g.ny, rows))


def _check_dm_solution(dm: DmInstance, m1: Matching, m2: Matching) -> None:
    if not is_matching(dm.g1, m1.edges):
        raise ValueError("m1 is not a matching of G1")
    if not is_matching(dm.g2, m2.edges):
        raise ValueError("m2 is not a matching of G2")
    if m1.edge_set & m2.edge_set:
        raise ValueError("matchings are not disjoint")
    full_x = frozenset(range(dm.g1.nx))
    if m1.covered_x != full_x or m2.covered_x != full_x:
        raise ValueError("matchings must both saturate X")


def project_dm_to_spair(instance: SdmInstance, m1: Matching, m2: Matching) -> SPair:
    """Drop M2 edges whose X endpoint lies outside S; M1 carries over."""
    dm = reduce_sdm_to_dm(instance)
    _check_dm_solution(dm, m1, m2)
    in_s = set(instance.s_set)
    kept = Matching.from_edges((x, y) for x, y in m2.edges if x in in_s)
    return SPair(m1, kept)


def extend_spair_to_dm(instance: SdmInstance, spair: SPair) -> tuple[Matching, Matching]:
    """Enlarge M2 to saturate all of X using the added (X-S) x Y edges.

    Keeps M2's edges on S (the ones project_dm_to_spair keeps) and pairs the
    X-S vertices, ascending, with the first |X-S| Y vertices those edges
    leave free, ascending. M1 saturates X, so |Y| >= |X| and at least
    |X-S| >= 2 Y vertices stay free (|S| <= |X| - 2). An X-S vertex handed
    its own M1 mate swaps Y vertices with the next X-S vertex, cyclically;
    neither then holds its mate, since the free vertices and the M1 mates
    are each distinct, so a swap never makes a new clash.
    """
    g = instance.graph
    if len(instance.s_set) >= g.nx - 1:
        raise ValueError("extension requires |S| < |X|-1")
    # an S-pair's M1 saturates X, so it also refuses |Y| < |X|
    ok, why = verify_spair(instance, spair)
    if not ok:
        raise ValueError(f"invalid S-pair: {why}")
    in_s = set(instance.s_set)
    kept = [(x, y) for x, y in spair.m2.edges if x in in_s]
    taken = {y for _, y in kept}
    rest = [x for x in range(g.nx) if x not in in_s]
    free_y = [y for y in range(g.ny) if y not in taken][:len(rest)]
    m1_mate = dict(spair.m1.edges)
    for i, x in enumerate(rest):
        if free_y[i] == m1_mate[x]:
            j = (i + 1) % len(rest)
            free_y[i], free_y[j] = free_y[j], free_y[i]
    return spair.m1, Matching.from_edges(kept + list(zip(rest, free_y)))
