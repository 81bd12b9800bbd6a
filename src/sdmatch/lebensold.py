"""k disjoint X-saturating matchings: counting condition and construction.

Both rest on one max flow, ``flow.feasible_flow`` with capacity k on every
vertex, the same degree network the S-pair factor runs on. A flow of value
k|X| is a factor H, a subgraph with degree exactly k on X and at most k on Y,
and ``konig_color(H, k)`` splits it by Euler partitions into its k color
classes: k disjoint X-saturating matchings. A smaller flow leaves a
minimum cut of value
k(|X| - |W|) + sum_y min(k, |N(y) cap W|) < k|X|, where W is the set of X
vertices on its source side; so W violates Lebensold's counting condition
sum_y min(k, |N(y) cap W|) >= k|W|. Deciding, constructing and certifying
"no" thus take one max flow, in polynomial time. The flow runs without
``gf_factor``'s counting cuts, so W is always the flow's own minimal cut.

k = 1 is Hall's theorem: one X-saturating matching, or a W with
|W| - |N(W)| = |X| - nu(G), since the cut's value |X| - |W| + |N(W)| is the
maximum matching size nu(G).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .coloring import konig_color
# gf_factor is not used here; perfbench's tracer self-test reads it from this
# module, so the name stays until that test stops doing so.
from .flow import feasible_flow, gf_factor  # noqa: F401
from .graph import BipartiteGraph, Matching


class LebensoldVerdict(NamedTuple):
    holds: bool
    violating_set: Optional[tuple[int, ...]]
    # when the condition holds: k pairwise disjoint X-saturating matchings
    matchings: Optional[tuple[Matching, ...]] = None


def lebensold_condition(graph: BipartiteGraph, k: int) -> LebensoldVerdict:
    """Check sum_y min(k, |N(y) cap W|) >= k|W| for every W subset of X.

    One max flow decides it. When the condition holds the verdict carries
    k disjoint X-saturating matchings, the color classes of the flow's
    k-factor; when it fails, the violating set is the nonempty set of X
    vertices on the source side of the minimal minimum cut (not necessarily
    the smallest violating set).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h, w = feasible_flow(graph, [k] * graph.nx, [k] * graph.ny)
    if h is None:
        return LebensoldVerdict(False, w)
    return LebensoldVerdict(True, None, konig_color(h, k))
