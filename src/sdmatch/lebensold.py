"""k disjoint X-saturating matchings: counting condition and construction.

Both rest on one max flow, ``flow.degree_flow`` with capacity k on every
vertex. A flow of value k|X| is a factor with degree exactly k on X and at
most k on Y, and a proper k-edge-coloring splits it into k disjoint
X-saturating matchings. A smaller flow leaves a minimum cut of value
k(|X| - |W|) + sum_y min(k, |N(y) cap W|) < k|X|, where W is the set of X
vertices on its source side; so W violates Lebensold's counting condition
sum_y min(k, |N(y) cap W|) >= k|W|. Deciding, constructing and certifying
"no" thus take one max flow, in polynomial time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coloring import konig_color
# gf_factor is not used here; perfbench's tracer self-test reads it from this
# module, so the name stays until that test stops doing so.
from .flow import degree_flow, gf_factor  # noqa: F401
from .graph import BipartiteGraph, Matching


@dataclass(frozen=True)
class LebensoldVerdict:
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
    factor, w = degree_flow(graph, k)
    if factor is None:
        return LebensoldVerdict(False, w)
    coloring = konig_color(BipartiteGraph.from_edges(graph.nx, graph.ny, factor))
    # every X vertex has degree exactly k, so the palette is exactly k
    return LebensoldVerdict(True, None, tuple(coloring.color_class(c) for c in range(1, k + 1)))


def k_disjoint_saturating(graph: BipartiteGraph, k: int) -> Optional[tuple[Matching, ...]]:
    """k pairwise edge-disjoint X-saturating matchings, or None (no caller but
    perfbench's tracer, which lists its name)."""
    return lebensold_condition(graph, k).matchings
