"""SDM decision and construction algorithms.

Three routes: the polynomial factor-and-color algorithm for |S| >= |X|-1,
injective-partner enumeration for small S, and pruned exact backtracking for
the general (NP-hard) case. An exhaustive pair counter and an exact solver
for the two-graph variant serve as oracles for cross-checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .coloring import two_color_with_anchor
from .flow import DegreeBounds, gf_factor
from .graph import BipartiteGraph, DmInstance, Matching, SdmInstance, SPair
from .matching import has_x_saturating_matching, max_matching

DEFAULT_BOUNDED_S_CAP = 8
DEFAULT_COUNT_EDGE_LIMIT = 16
DEFAULT_DM_EDGE_LIMIT = 64


class Method(enum.Enum):
    POLY_LARGE_S = "PolyLargeS"
    BOUNDED_S = "BoundedS"
    EXACT_BACKTRACK = "ExactBacktrack"


@dataclass(frozen=True)
class SolveOutcome:
    spair: Optional[SPair]
    method: Method


class BudgetExhausted(Exception):
    """Raised when an exact search runs out of its step budget."""


def spair_factor_bounds(instance: SdmInstance) -> DegreeBounds:
    """Degree bounds whose factor is exactly a union M1 | M2 of an S-pair."""
    g = instance.graph
    in_s = set(instance.s_set)
    f_x = [2 if x in in_s else 1 for x in range(g.nx)]
    return DegreeBounds.make(f_x, f_x, [0] * g.ny, [2] * g.ny)


def _solve_tiny_x(instance: SdmInstance) -> Optional[SPair]:
    # |X| <= 1: settle by direct inspection
    g = instance.graph
    if g.nx == 0:
        return SPair(Matching(()), Matching(()))
    neighbors = g.adj[0]
    if not neighbors:
        return None
    m1 = Matching(((0, neighbors[0]),))
    if 0 not in instance.s_set:
        return SPair(m1, Matching(()))
    if len(neighbors) < 2:
        return None
    return SPair(m1, Matching(((0, neighbors[1]),)))


def solve_poly_large_s(instance: SdmInstance) -> Optional[SPair]:
    """Polynomial algorithm for |S| >= |X|-1 via degree factor + 2-coloring."""
    g = instance.graph
    if len(instance.s_set) < g.nx - 1:
        raise ValueError("solve_poly_large_s requires |S| >= |X|-1")
    if g.nx <= 1:
        return _solve_tiny_x(instance)
    factor = gf_factor(g, spair_factor_bounds(instance))
    if factor is None:
        return None
    sub = BipartiteGraph.from_edges(g.nx, g.ny, factor)
    in_s = set(instance.s_set)
    anchor = next((x for x in range(g.nx) if x not in in_s), None)
    coloring = two_color_with_anchor(sub, anchor)
    return SPair(coloring.color_class(1), coloring.color_class(2))


def _complete_m1(graph: BipartiteGraph, m2_edges: list[tuple[int, int]]) -> Optional[Matching]:
    residual = graph.without_edges(m2_edges)
    m1 = max_matching(residual)
    return m1 if len(m1) == graph.nx else None


def solve_bounded_s(instance: SdmInstance, cap: int = DEFAULT_BOUNDED_S_CAP,
                    budget: Optional[int] = None) -> Optional[SPair]:
    """Enumerate injective S -> Y partner choices; check the residual for M1.

    Raises BudgetExhausted after `budget` search steps (distinct from "no").
    """
    s = instance.s_set
    if len(s) > cap:
        raise ValueError(f"|S|={len(s)} exceeds bounded-S cap {cap}")
    return _search_m2(instance, prune=False, budget=budget)


def solve_exact(instance: SdmInstance, budget: Optional[int] = None) -> Optional[SPair]:
    """Complete backtracking with Hall-certificate pruning on the residual.

    Raises BudgetExhausted after `budget` search steps (distinct from "no").
    """
    return _search_m2(instance, prune=True, budget=budget)


def _search_m2(instance: SdmInstance, prune: bool,
               budget: Optional[int]) -> Optional[SPair]:
    g = instance.graph
    s = instance.s_set
    # Hall pre-check: without an X-saturating matching of G there is no M1;
    # with an empty S that matching is already the answer
    m1 = max_matching(g)
    if len(m1) < g.nx:
        return None
    if not s:
        return SPair(m1, Matching(()))
    chosen: list[tuple[int, int]] = []
    used_y: set[int] = set()
    steps = [0]

    def step() -> None:
        steps[0] += 1
        if budget is not None and steps[0] > budget:
            raise BudgetExhausted(f"step budget {budget} exhausted")

    def recurse(i: int) -> Optional[SPair]:
        step()
        if prune and chosen:
            if not has_x_saturating_matching(g.without_edges(chosen)):
                return None
        if i == len(s):
            m1 = _complete_m1(g, chosen)
            if m1 is not None:
                return SPair(m1, Matching.from_edges(chosen))
            return None
        x = s[i]
        for y in g.adj[x]:
            if y in used_y:
                continue
            chosen.append((x, y))
            used_y.add(y)
            result = recurse(i + 1)
            chosen.pop()
            used_y.discard(y)
            if result is not None:
                return result
        return None

    return recurse(0)


def _saturating_matchings(graph: BipartiteGraph):
    """Yield every X-saturating matching, X ascending, neighbors ascending."""
    used_y: set[int] = set()
    picks: list[tuple[int, int]] = []

    def recurse(x: int):
        if x == graph.nx:
            yield Matching.from_edges(picks)
            return
        for y in graph.adj[x]:
            if y in used_y:
                continue
            used_y.add(y)
            picks.append((x, y))
            yield from recurse(x + 1)
            picks.pop()
            used_y.discard(y)

    yield from recurse(0)


def count_spairs_exact(instance: SdmInstance,
                       size_limit: int = DEFAULT_COUNT_EDGE_LIMIT) -> int:
    """Exact count of distinct S-pairs by full enumeration.

    A pair is counted once per choice of M1 (X-saturating) and canonical M2
    (exactly one edge per S vertex, edges pairwise disjoint and disjoint from
    M1). Existence of an S-pair is equivalent to count > 0.
    """
    g = instance.graph
    if g.num_edges() > size_limit:
        raise ValueError(f"instance too large: {g.num_edges()} edges > {size_limit}")
    s = instance.s_set
    total = 0
    for m1 in _saturating_matchings(g):
        banned = m1.edge_set

        def count_m2(i: int, used_y: set[int]) -> int:
            if i == len(s):
                return 1
            x = s[i]
            subtotal = 0
            for y in g.adj[x]:
                if y in used_y or (x, y) in banned:
                    continue
                used_y.add(y)
                subtotal += count_m2(i + 1, used_y)
                used_y.discard(y)
            return subtotal

        total += count_m2(0, set())
    return total


def solve_dm_exact(instance: DmInstance,
                   size_limit: int = DEFAULT_DM_EDGE_LIMIT) -> Optional[tuple[Matching, Matching]]:
    """Complete search for disjoint X-saturating matchings M1 in G1, M2 in G2."""
    g1, g2 = instance.g1, instance.g2
    if max(g1.num_edges(), g2.num_edges()) > size_limit:
        raise ValueError("instance too large for exact DM search")
    for m1 in _saturating_matchings(g1):
        residual = g2.without_edges(m1.edges)
        m2 = max_matching(residual)
        if len(m2) == g2.nx:
            return m1, m2
    return None


def solve(instance: SdmInstance, budget: Optional[int] = None,
          bounded_cap: int = DEFAULT_BOUNDED_S_CAP) -> SolveOutcome:
    """Dispatch: polynomial route when |S| >= |X|-1, bounded-S when S is
    small, exact backtracking otherwise."""
    nx = instance.graph.nx
    ns = len(instance.s_set)
    if ns >= nx - 1:
        return SolveOutcome(solve_poly_large_s(instance), Method.POLY_LARGE_S)
    if ns <= bounded_cap:
        return SolveOutcome(solve_bounded_s(instance, bounded_cap, budget), Method.BOUNDED_S)
    return SolveOutcome(solve_exact(instance, budget), Method.EXACT_BACKTRACK)
