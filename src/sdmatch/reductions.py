"""Executable reductions: CNF satisfiability to SDM, and SDM to the
two-graph disjoint-matchings problem, with certificate translation both ways.

Gadget layout for the CNF reduction: per variable i a cycle of length 4s
(vertices v_{i,1}..v_{i,4s}; even positions on the X side), per clause k an
edge w_k z_k with w_k on the X side. A clause touches the cycles only at the
odd positions 4k-3 (positive literal) and 4k-1 (negative literal).

Vertex numbering: cycles first (variable-major, position ascending, X and Y
indices assigned by parity), then clause gadgets.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graph import (
    BipartiteGraph,
    DmInstance,
    FormatError,
    Matching,
    SdmInstance,
    SPair,
    content_lines,
    is_matching,
    verify_spair,
)
from .matching import max_matching


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
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-integer header counts") from exc
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


class GadgetMap(NamedTuple):
    """Bookkeeping linking CNF variables and clauses to gadget vertices."""

    s: int  # clause count
    t: int  # variable count

    def cycle_len(self) -> int:
        return 4 * self.s

    def cycle_x(self, i: int, j: int) -> int:
        # v_{i,j} for even j; X index
        assert j % 2 == 0
        return (i - 1) * 2 * self.s + (j // 2 - 1)

    def cycle_y(self, i: int, j: int) -> int:
        # v_{i,j} for odd j; Y index
        assert j % 2 == 1
        return (i - 1) * 2 * self.s + (j - 1) // 2

    def clause_w(self, k: int) -> int:
        return 2 * self.s * self.t + (k - 1)

    def clause_z(self, k: int) -> int:
        return 2 * self.s * self.t + (k - 1)

    def cycle_edge(self, i: int, j: int) -> tuple[int, int]:
        """Edge v_{i,j} v_{i,j+1} (position wraps) as an (x, y) pair."""
        j2 = j % self.cycle_len() + 1
        if j % 2 == 0:
            return self.cycle_x(i, j), self.cycle_y(i, j2)
        return self.cycle_x(i, j2), self.cycle_y(i, j)

    def s_set(self) -> list[int]:
        members = [
            self.cycle_x(i, j)
            for i in range(1, self.t + 1)
            for j in range(2, self.cycle_len() + 1, 4)
        ]
        members.extend(self.clause_w(k) for k in range(1, self.s + 1))
        return sorted(members)


def gadget_map(formula: CnfFormula) -> GadgetMap:
    """The gadget layout of a formula, which its clause and variable counts
    fix; a formula with no clauses has none."""
    if not formula.clauses:
        raise ValueError("formula has no clauses (trivially satisfiable)")
    return GadgetMap(len(formula.clauses), formula.num_vars)


def reduce_3sat_to_sdm(formula: CnfFormula) -> tuple[SdmInstance, GadgetMap]:
    """Build the gadget instance: per-variable cycles, per-clause edges,
    plus one literal edge for each occurrence."""
    gm = gadget_map(formula)
    s, t = gm.s, gm.t
    nx = 2 * s * t + s
    ny = 2 * s * t + s
    edges: list[tuple[int, int]] = []
    for i in range(1, t + 1):
        for j in range(1, gm.cycle_len() + 1):
            edges.append(gm.cycle_edge(i, j))
    for k in range(1, s + 1):
        edges.append((gm.clause_w(k), gm.clause_z(k)))
        for lit in formula.clauses[k - 1]:
            i = abs(lit)
            j = 4 * k - 3 if lit > 0 else 4 * k - 1
            edges.append((gm.clause_w(k), gm.cycle_y(i, j)))
    graph = BipartiteGraph.from_edges(nx, ny, edges)
    return SdmInstance.make(graph, gm.s_set()), gm


def _true_false_edges(gm: GadgetMap, i: int) -> tuple[tuple[list, list], tuple[list, list]]:
    """The (M1, M2) edge lists of the value-true and the value-false pair on cycle i."""
    n = gm.cycle_len()
    true_m1 = [gm.cycle_edge(i, j) for j in range(1, n + 1, 2)]
    true_m2 = [gm.cycle_edge(i, 4 * j - 2) for j in range(1, gm.s + 1)]
    false_m1 = [gm.cycle_edge(i, j) for j in range(2, n + 1, 2)]
    false_m2 = [gm.cycle_edge(i, 4 * j - 3) for j in range(1, gm.s + 1)]
    return (true_m1, true_m2), (false_m1, false_m2)


def true_false_pairs(gm: GadgetMap, i: int) -> tuple[SPair, SPair]:
    """The two possible pairs on cycle i: value-true and value-false."""
    if not 1 <= i <= gm.t:
        raise ValueError(f"variable index out of range: {i}")
    (true_m1, true_m2), (false_m1, false_m2) = _true_false_edges(gm, i)
    return (
        SPair(Matching.from_edges(true_m1), Matching.from_edges(true_m2)),
        SPair(Matching.from_edges(false_m1), Matching.from_edges(false_m2)),
    )


def decode_spair_to_assignment(formula: CnfFormula, spair: SPair) -> dict[int, bool]:
    """Read off the variable values from which pair each cycle carries, and
    refuse them unless they satisfy every clause of the formula."""
    gm = gadget_map(formula)
    m1, m2 = spair.m1.edge_set, spair.m2.edge_set
    values: dict[int, bool] = {}
    for i in range(1, gm.t + 1):
        for value, (pair_m1, pair_m2) in zip((True, False), _true_false_edges(gm, i)):
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
    gm = gadget_map(formula)
    m1: list[tuple[int, int]] = []
    m2: list[tuple[int, int]] = []
    for i in range(1, gm.t + 1):
        true_pair, false_pair = true_false_pairs(gm, i)
        pair = true_pair if assignment[i] else false_pair
        m1.extend(pair.m1.edges)
        m2.extend(pair.m2.edges)
    for k in range(1, gm.s + 1):
        clause = formula.clauses[k - 1]
        witnesses = sorted(
            abs(lit) for lit in clause if assignment[abs(lit)] == (lit > 0)
        )
        if not witnesses:
            raise ValueError(f"assignment does not satisfy clause {k}")
        i = witnesses[0]
        m1.append((gm.clause_w(k), gm.clause_z(k)))
        j = 4 * k - 3 if assignment[i] else 4 * k - 1
        m2.append((gm.clause_w(k), gm.cycle_y(i, j)))
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

    Keeps M2's edges on S (the ones project_dm_to_spair keeps). The helper
    graph lives on the instance's own X and Y: an S row is empty, and an X-S
    row holds the Y vertices the kept edges leave free, minus that vertex's
    M1 mate. Its maximum matching is M2's new edges.

    The helper always saturates X-S. M1 saturates X, so |Y| >= |X|, and with
    |S| <= |X| - 2 at least |X-S| >= 2 Y vertices stay free. Each X-S vertex
    loses at most its M1 mate, so any two of them together see every free Y
    vertex, and Hall's condition holds; the raise below is a guard.
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
    free_y = [y for y in range(g.ny) if y not in taken]
    m1_mate = dict(spair.m1.edges)
    rows = tuple(() if x in in_s else tuple(y for y in free_y if y != m1_mate[x])
                 for x in range(g.nx))
    extra = max_matching(BipartiteGraph(g.nx, g.ny, rows))
    if len(extra) != g.nx - len(in_s):
        raise ValueError("helper graph has no saturating matching")
    return spair.m1, Matching.from_edges(kept + list(extra.edges))

