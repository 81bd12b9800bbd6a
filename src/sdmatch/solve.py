"""SDM decision and construction algorithms.

Two algorithms behind three labels. |S| >= |X|-1 takes the polynomial
algorithm (PolyLargeS): a degree factor H with degree 2 on S, 1 on the rest of
X and at most 2 on Y is exactly a union M1 | M2, and konig_color splits H into
two color classes. The split walks the path of the X vertex outside S first,
so that vertex's edge lands in the first class, M1, and no swap is needed. An
X vertex with fewer neighbours than its factor degree, or factor degrees on X
that sum past what Y can take, answers "no" before any flow network is built.
Every smaller S takes one exact search, labelled BoundedS when |S| is within
the cap and ExactBacktrack otherwise (the general case is NP-hard), with the
same step budget under both labels. Before its first step it checks Hall's
condition on X: fewer Y vertices with a neighbour than X vertices answers "no"
in O(E), and only a graph that passes this count runs Hopcroft-Karp for the
X-saturating matching the search starts from. It walks _matchings, the one
depth-first enumerator of this module, which picks the M2 partner of each S
vertex in turn with an explicit stack. The search keeps one X-saturating
matching of the residual graph G - M2 and filters the picks with it: a pick
that removes a matched edge is repaired by a single augmenting path, or
refused when there is none, and a "yes" prints that repaired matching as M1.
An exhaustive pair counter, the oracle for cross-checks, walks the same
enumerator for M1 and again, refusing M1's edges, for M2.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

from .coloring import konig_color
from .flow import gf_factor
from .graph import Matching, SdmInstance, SPair
from .matching import max_matching, rematch

DEFAULT_BOUNDED_S_CAP = 8
DEFAULT_COUNT_EDGE_LIMIT = 16


class Method(enum.Enum):
    POLY_LARGE_S = "PolyLargeS"
    BOUNDED_S = "BoundedS"
    EXACT_BACKTRACK = "ExactBacktrack"


class SolveOutcome(NamedTuple):
    spair: Optional[SPair]
    method: Method


class BudgetExhausted(Exception):
    """Raised when an exact search runs out of its step budget."""


def solve_poly_large_s(instance: SdmInstance) -> Optional[SPair]:
    """Polynomial algorithm for |S| >= |X|-1: a degree factor, split by a
    proper 2-edge-coloring into M1 and M2."""
    g = instance.graph
    if len(instance.s_set) < g.nx - 1:
        raise ValueError("solve_poly_large_s requires |S| >= |X|-1")
    # the factor of an S-pair: M1 | M2 has degree 2 on S, 1 on the rest of X
    # and at most 2 on Y
    in_s = set(instance.s_set)
    h = gf_factor(g, [2 if x in in_s else 1 for x in range(g.nx)], [2] * g.ny)
    if h is None:
        return None
    # Each S vertex has degree 2 in the factor and so sees both colors. The
    # X vertex outside S, if any, is the one X vertex of degree 1, so the
    # split walks its path first and puts its edge in M1: M1 saturates X and
    # M2 saturates S.
    return SPair(*konig_color(h, 2))


def solve_exact(instance: SdmInstance, budget: Optional[int] = None) -> Optional[SPair]:
    """The exact search, for any S.

    Raises BudgetExhausted after `budget` search steps (not "no"), ValueError on a negative one.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    g = instance.graph
    s = instance.s_set
    # Hall pre-check: without an X-saturating matching of G there is no M1.
    # First Hall's condition on W = X, counted in O(E): fewer Y vertices with
    # a neighbour than X vertices. Then Hopcroft-Karp; with an empty S its
    # matching is already the answer.
    if len(set(chain.from_iterable(g.adj))) < g.nx:
        return None
    m1 = max_matching(g)
    if len(m1) < g.nx:
        return None
    if not s:
        return SPair(m1, Matching(()))
    adj = g.adj
    match_x = [-1] * g.nx
    match_y = [-1] * g.ny
    for x, y in m1.edges:
        match_x[x] = y
        match_y[y] = x
    # Every search node costs one step: the root, counted here, then each
    # pick tried. match_x/match_y stays X-saturating in G - M2: a pick that
    # leaves it alone is free, a pick of a matched edge needs one augmenting
    # path, and undoing a pick only puts an edge back.
    steps = 1

    def repair(x: int, y: int, picks: list[int]) -> bool:
        nonlocal steps
        steps += 1
        if budget is not None and steps > budget:
            raise BudgetExhausted(f"step budget {budget} exhausted")
        # picks bans each M2 edge from the residual graph; picks[x] == y is
        # x's mate when rematch runs, as its contract asks
        return match_x[x] != y or rematch(x, adj, match_x, match_y, picks)

    for m2 in _matchings(adj, g.ny, s, repair):
        # the repaired matching avoids M2, so it is M1
        return SPair(Matching.from_match_x(match_x), Matching.from_edges(m2))
    return None


def _matchings(adj: tuple[tuple[int, ...], ...], ny: int, xs: Sequence[int],
               admit: Optional[Callable[[int, int, list[int]], bool]] = None):
    """Yield every matching that gives each x in xs one of its neighbors
    (Y vertices below ny), as (x, y) pairs: depth first with an explicit
    stack, xs in sequence, neighbors ascending.

    picks[x] is the Y vertex x holds, -1 if none. A pick of an unused y is set
    in picks before admit(x, y, picks) runs; it stands if admit returns true,
    and is cleared otherwise. admit=None admits every pick.
    """
    picks = [-1] * len(adj)
    nxt = [0] * len(xs)  # the next index into the neighbor list of xs[i]
    used_y = [False] * ny
    i = 0
    while i >= 0:
        if i == len(xs):
            yield tuple((x, picks[x]) for x in xs)
            i -= 1
            continue
        x = xs[i]
        y = picks[x]
        if y != -1:  # back from the subtree of this pick: undo it
            picks[x] = -1
            used_y[y] = False
        neighbors = adj[x]
        while nxt[i] < len(neighbors):
            y = neighbors[nxt[i]]
            nxt[i] += 1
            if used_y[y]:
                continue
            picks[x] = y
            if admit is None or admit(x, y, picks):
                used_y[y] = True
                i += 1
                break
            picks[x] = -1
        else:
            nxt[i] = 0
            i -= 1


def count_spairs_exact(instance: SdmInstance,
                       size_limit: int = DEFAULT_COUNT_EDGE_LIMIT) -> int:
    """Exact count of distinct S-pairs by full enumeration.

    A pair is counted once per choice of M1 (X-saturating) and canonical M2
    (exactly one edge per S vertex, edges pairwise disjoint and disjoint from
    M1). Existence of an S-pair is equivalent to count > 0.
    """
    if size_limit < 0:
        raise ValueError("limit must be >= 0")
    g = instance.graph
    if g.num_edges() > size_limit:
        raise ValueError(f"instance too large: {g.num_edges()} edges > {size_limit}")
    return sum(1 for m1 in map(set, _matchings(g.adj, g.ny, range(g.nx)))
               for _ in _matchings(g.adj, g.ny, instance.s_set, lambda x, y, _: (x, y) not in m1))


def solve(instance: SdmInstance, budget: Optional[int] = None) -> SolveOutcome:
    """Dispatch: the polynomial route when |S| >= |X|-1, else the exact
    search, labelled BoundedS when |S| <= DEFAULT_BOUNDED_S_CAP.

    Raises ValueError on a negative budget, on every route.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    nx = instance.graph.nx
    ns = len(instance.s_set)
    if ns >= nx - 1:
        return SolveOutcome(solve_poly_large_s(instance), Method.POLY_LARGE_S)
    method = Method.BOUNDED_S if ns <= DEFAULT_BOUNDED_S_CAP else Method.EXACT_BACKTRACK
    return SolveOutcome(solve_exact(instance, budget), method)
