"""Independent answer checker and per-family oracles.

Nothing here imports sdmatch: outputs are parsed with this module's own
readers and checked against the generator's in-memory instance. A "yes"
must carry a certificate that passes the conditions below; a "no" is checked
against an oracle chosen for its family (networkx max flow, scipy matching,
counting, or brute-force satisfiability).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterable, Optional

from .generate import Edge, Instance


class CheckError(Exception):
    """An output that cannot be read, or a certificate that fails a condition."""


# ---------------------------------------------------------------------------
# Readers for the program's output formats


def _content_lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("c")]


def parse_pairs(line: str, label: str) -> list[Edge]:
    tokens = line.split()
    if not tokens or tokens[0] != label:
        raise CheckError(f"expected a {label} line, got {line[:60]!r}")
    pairs = []
    for tok in tokens[1:]:
        x, sep, y = tok.partition(":")
        if not sep or not x.isdigit() or not y.isdigit():
            raise CheckError(f"malformed pair {tok!r} on the {label} line")
        pairs.append((int(x) - 1, int(y) - 1))
    return pairs


def parse_solve_output(text: str) -> Optional[tuple[list[Edge], list[Edge]]]:
    """(M1, M2) for RESULT yes, None for RESULT no."""
    lines = _content_lines(text)
    if lines == ["RESULT no"]:
        return None
    if len(lines) != 3 or lines[0] != "RESULT yes":
        raise CheckError("solve output is neither 'RESULT no' nor 'RESULT yes' with M1 and M2")
    return parse_pairs(lines[1], "M1"), parse_pairs(lines[2], "M2")


def parse_sdm(text: str) -> tuple[int, int, set[Edge], tuple[int, ...]]:
    """(nx, ny, edges, S) from an .sdm text, 0-based."""
    nx = ny = -1
    edges: set[Edge] = set()
    s_set: tuple[int, ...] = ()
    for line in _content_lines(text):
        tokens = line.split()
        if tokens[0] == "p" and len(tokens) == 5 and tokens[1] == "sdm":
            nx, ny = int(tokens[2]), int(tokens[3])
        elif tokens[0] == "e" and len(tokens) == 3:
            edges.add((int(tokens[1]) - 1, int(tokens[2]) - 1))
        elif tokens[0] == "s":
            s_set = tuple(int(t) - 1 for t in tokens[1:])
        else:
            raise CheckError(f"unexpected line in instance: {line[:60]!r}")
    if nx < 0:
        raise CheckError("instance has no problem line")
    return nx, ny, edges, s_set


# ---------------------------------------------------------------------------
# Certificate conditions


def matching_problem(edges: set[Edge], pairs: list[Edge], label: str) -> Optional[str]:
    if len(set(pairs)) != len(pairs):
        return f"{label} repeats an edge"
    for e in pairs:
        if e not in edges:
            return f"{label} uses {e[0] + 1}:{e[1] + 1}, which is not an edge"
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        return f"{label} is not a matching (shared endpoint)"
    return None


def spair_problem(nx: int, edges: set[Edge], s_set: Iterable[int],
                  m1: list[Edge], m2: list[Edge]) -> Optional[str]:
    """None when (M1, M2) is an S-pair, else the first condition it breaks."""
    for pairs, label in ((m1, "M1"), (m2, "M2")):
        why = matching_problem(edges, pairs, label)
        if why:
            return why
    if set(m1) & set(m2):
        return "M1 and M2 share an edge"
    if {x for x, _ in m1} != set(range(nx)):
        return "M1 does not saturate X"
    if not set(s_set) <= {x for x, _ in m2}:
        return "M2 does not saturate S"
    return None


def lebensold_deficit(ny_adj: dict[int, set[int]], k: int, w: set[int]) -> int:
    """k|W| - sum_y min(k, |N(y) & W|); positive when W violates the condition."""
    return k * len(w) - sum(min(k, len(xs & w)) for xs in ny_adj.values())


def parse_assignment(text: str, num_vars: int) -> dict[int, bool]:
    lines = _content_lines(text)
    if len(lines) != 1 or not lines[0].startswith("v ") or not lines[0].endswith(" 0"):
        raise CheckError("decode output is not a single 'v ... 0' line")
    lits = [int(t) for t in lines[0].split()[1:-1]]
    values = {abs(lit): lit > 0 for lit in lits}
    if len(values) != len(lits) or set(values) != set(range(1, num_vars + 1)):
        raise CheckError("assignment does not give every variable exactly one value")
    return values


def satisfies(clauses, values: dict[int, bool]) -> bool:
    return all(any(values[abs(lit)] == (lit > 0) for lit in clause) for clause in clauses)


# ---------------------------------------------------------------------------
# Oracles for "no" answers


def brute_force_sat(num_vars: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=num_vars):
        if satisfies(clauses, {i + 1: b for i, b in enumerate(bits)}):
            return True
    return False


def factor_exists(inst: Instance) -> bool:
    """Max flow on the (g,f)-factor network of an S-pair: f = 2 on S, 1 on
    X - S, 0..2 on Y. M1 | M2 of any S-pair is such a factor, and for
    |S| >= |X|-1 a factor splits into an S-pair."""
    import networkx as nx_

    net = nx_.DiGraph()
    in_s = set(inst.s_set)
    need = 0
    for x in range(inst.nx):
        f = 2 if x in in_s else 1
        need += f
        net.add_edge("s", ("x", x), capacity=f)
    for x, y in inst.edges:
        net.add_edge(("x", x), ("y", y), capacity=1)
        net.add_edge(("y", y), "t", capacity=2)
    if "t" not in net:
        return need == 0
    return nx_.maximum_flow_value(net, "s", "t") == need


def has_x_saturating(nx: int, ny: int, edges: Iterable[Edge]) -> bool:
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    pairs = list(edges)
    if nx > ny:
        return False
    if not pairs:
        return nx == 0
    rows = np.fromiter((x for x, _ in pairs), dtype=np.int32, count=len(pairs))
    cols = np.fromiter((y for _, y in pairs), dtype=np.int32, count=len(pairs))
    graph = csr_matrix((np.ones(len(pairs), dtype=np.int8), (rows, cols)), shape=(nx, ny))
    mate = maximum_bipartite_matching(graph, perm_type="column")
    return bool((mate >= 0).all())


def small_s_has_pair(inst: Instance) -> bool:
    """S-pair existence for |S| <= 1, or for |X| > |Y| (never)."""
    if inst.family == "chain":
        return True  # M1 = {(xi, yi)} by construction
    if inst.nx > inst.ny:
        return False  # M1 cannot saturate X: counting
    if not inst.s_set:
        return has_x_saturating(inst.nx, inst.ny, inst.edges)
    if len(inst.s_set) == 1:
        (s,) = inst.s_set
        partners = [y for x, y in inst.edges if x == s]
        return any(has_x_saturating(inst.nx, inst.ny, (e for e in inst.edges if e != (s, y)))
                   for y in partners)
    raise CheckError(f"no oracle for |S|={len(inst.s_set)} with |X| <= |Y|")


def spair_exists(inst: Instance) -> bool:
    if inst.family == "random":
        return factor_exists(inst)
    return small_s_has_pair(inst)


# ---------------------------------------------------------------------------
# Per-kind checks. Each returns the verdict word or raises CheckError.


def check_solve(inst: Instance, code: int, out: str) -> str:
    answer = parse_solve_output(out)
    if answer is None:
        if code != 1:
            raise CheckError(f"RESULT no with exit code {code}")
        if spair_exists(inst):
            raise CheckError("answered no, but the oracle finds an S-pair")
        return "no"
    if code != 0:
        raise CheckError(f"RESULT yes with exit code {code}")
    why = spair_problem(inst.nx, set(inst.edges), inst.s_set, *answer)
    if why:
        raise CheckError(f"invalid S-pair: {why}")
    return "yes"


def check_lebensold(inst: Instance, code: int, out: str) -> str:
    lines = _content_lines(out)
    if not lines:
        raise CheckError("empty lebensold output")
    y_adj: dict[int, set[int]] = defaultdict(set)
    for x, y in inst.edges:
        y_adj[y].add(x)
    head = lines[0].split()
    if head[0] == "VIOLATED":
        if code != 1:
            raise CheckError(f"VIOLATED with exit code {code}")
        w = [int(t) - 1 for t in head[1:]]
        if not w or len(set(w)) != len(w) or not all(0 <= x < inst.nx for x in w):
            raise CheckError("witness W is empty, repeats a vertex or leaves X")
        if lebensold_deficit(y_adj, inst.k, set(w)) <= 0:
            raise CheckError("witness W does not violate the counting condition")
        return "violated"
    if lines[0] != "HOLDS" or code != 0:
        raise CheckError(f"expected HOLDS or VIOLATED, got {lines[0][:40]!r} (exit {code})")
    if len(lines) != 1 + inst.k:
        raise CheckError(f"HOLDS must list {inst.k} matchings, got {len(lines) - 1}")
    edges = set(inst.edges)
    seen: set[Edge] = set()
    for idx, line in enumerate(lines[1:], start=1):
        pairs = parse_pairs(line, f"M{idx}")
        why = matching_problem(edges, pairs, f"M{idx}")
        if why:
            raise CheckError(why)
        if {x for x, _ in pairs} != set(range(inst.nx)):
            raise CheckError(f"M{idx} does not saturate X")
        if seen & set(pairs):
            raise CheckError(f"M{idx} shares an edge with an earlier matching")
        seen.update(pairs)
    return "holds"


def check_sat(inst: Instance, outputs: dict[str, tuple[int, str]]) -> str:
    reduce_code, reduced = outputs["reduce-3sat"]
    if reduce_code != 0:
        raise CheckError(f"reduce-3sat exited {reduce_code}")
    solve_code, solution = outputs["solve"]
    decode_code, decoded = outputs["decode"]
    answer = parse_solve_output(solution)
    if answer is None:
        if solve_code != 1 or decode_code != 1:
            raise CheckError(f"RESULT no with exit codes solve={solve_code} decode={decode_code}")
        if brute_force_sat(inst.num_vars, inst.clauses):
            raise CheckError("answered no, but the formula is satisfiable")
        return "no"
    if solve_code != 0 or decode_code != 0:
        raise CheckError(f"RESULT yes with exit codes solve={solve_code} decode={decode_code}")
    nx, _, edges, s_set = parse_sdm(reduced)
    why = spair_problem(nx, edges, s_set, *answer)
    if why:
        raise CheckError(f"invalid S-pair on the reduced instance: {why}")
    if not satisfies(inst.clauses, parse_assignment(decoded, inst.num_vars)):
        raise CheckError("decoded assignment does not satisfy the formula")
    return "yes"


def check(inst: Instance, outputs: dict[str, tuple[int, str]]) -> str:
    """Verdict word for a run's outputs (step name -> (exit code, stdout))."""
    if inst.kind == "sat":
        return check_sat(inst, outputs)
    if inst.kind == "lebensold":
        return check_lebensold(inst, *outputs["lebensold"])
    return check_solve(inst, *outputs["solve"])
