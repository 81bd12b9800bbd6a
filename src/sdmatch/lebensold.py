"""k disjoint X-saturating matchings: counting condition and construction.

Both rest on one max flow in the network s -> x (capacity k), x -> y (1),
y -> t (k). A flow of value k|X| is a factor with degree exactly k on X and
at most k on Y, and a proper k-edge-coloring splits it into k disjoint
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
from .flow import _MaxFlow, gf_factor  # noqa: F401
from .graph import BipartiteGraph, Matching


@dataclass(frozen=True)
class LebensoldVerdict:
    holds: bool
    violating_set: Optional[tuple[int, ...]]
    # when the condition holds: a factor with degree k on X and <= k on Y
    factor: Optional[tuple[tuple[int, int], ...]] = None


def lebensold_condition(graph: BipartiteGraph, k: int) -> LebensoldVerdict:
    """Check sum_y min(k, |N(y) cap W|) >= k|W| for every W subset of X.

    One max flow decides it. When the condition holds the verdict carries
    the k-factor found by the flow; when it fails, the violating set is the
    nonempty set of X vertices on the source side of the minimum cut (not
    necessarily the smallest violating set).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    nx, ny = graph.nx, graph.ny
    # node ids: 0 = source, 1..nx = X, nx+1..nx+ny = Y, nx+ny+1 = sink
    src, snk = 0, nx + ny + 1
    net = _MaxFlow(snk + 1)
    for x in range(nx):
        net.add(src, 1 + x, k)
    edges = graph.edges()
    edge_arcs = [net.add(1 + x, 1 + nx + y, 1) for x, y in edges]
    for y in range(ny):
        net.add(1 + nx + y, snk, k)
    if net.run(src, snk) == k * nx:
        factor = tuple(e for e, idx in zip(edges, edge_arcs) if net.cap[idx] == 0)
        return LebensoldVerdict(True, None, factor)
    # some s -> x arc is unsaturated, so its x is reachable and W is nonempty
    reach = net.reachable(src)
    return LebensoldVerdict(False, tuple(x for x in range(nx) if reach[1 + x]))


def k_disjoint_saturating(graph: BipartiteGraph, k: int,
                          verdict: Optional[LebensoldVerdict] = None) -> Optional[list[Matching]]:
    """k pairwise edge-disjoint X-saturating matchings, or None.

    The k-factor from lebensold_condition is properly k-colored; each color
    class is one matching. Pass the verdict of lebensold_condition for the
    same graph and k to reuse its flow instead of running it again.
    """
    if verdict is None:
        verdict = lebensold_condition(graph, k)
    if not verdict.holds:
        return None
    coloring = konig_color(BipartiteGraph.from_edges(graph.nx, graph.ny, verdict.factor))
    # every X vertex has degree exactly k, so the palette is exactly k
    return [coloring.color_class(c) for c in range(1, k + 1)]
