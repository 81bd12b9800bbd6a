"""Feasible flow with lower bounds and the bipartite (g,f)-factor extractor.

The factor problem is reduced to feasible flow: source -> each X vertex with
bounds [g(x), f(x)], each graph edge as a unit-capacity arc, each Y vertex ->
sink with bounds [g(y), f(y)]. Lower bounds are removed via the standard
excess/deficit super-source and super-sink transformation. The max flow
underneath is Dinic's algorithm, with no recursion in either phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import BipartiteGraph

_INF = 1 << 30


@dataclass(frozen=True)
class Arc:
    tail: int
    head: int
    low: int
    up: int


@dataclass(frozen=True)
class DegreeBounds:
    """Per-vertex degree bounds; every vertex must have an entry."""

    g_x: tuple[int, ...]
    f_x: tuple[int, ...]
    g_y: tuple[int, ...]
    f_y: tuple[int, ...]

    @staticmethod
    def make(g_x: Sequence[int], f_x: Sequence[int],
             g_y: Sequence[int], f_y: Sequence[int]) -> "DegreeBounds":
        if len(g_x) != len(f_x) or len(g_y) != len(f_y):
            raise ValueError("g and f must cover the same vertices")
        for g, f in zip(list(g_x) + list(g_y), list(f_x) + list(f_y)):
            if g < 0 or f < 0:
                raise ValueError("degree bounds must be nonnegative")
            if g > f:
                raise ValueError(f"lower bound {g} exceeds upper bound {f}")
        return DegreeBounds(tuple(g_x), tuple(f_x), tuple(g_y), tuple(f_y))

    @staticmethod
    def uniform(graph: BipartiteGraph, g_x: int, f_x: int, g_y: int, f_y: int) -> "DegreeBounds":
        return DegreeBounds.make(
            [g_x] * graph.nx, [f_x] * graph.nx, [g_y] * graph.ny, [f_y] * graph.ny
        )


class _MaxFlow:
    """Dinic's max flow on paired arcs (arc i and its reverse i ^ 1).

    Arcs are explored in insertion order, so the flow found is deterministic.
    Both phases are iterative: a BFS builds the level graph, then a DFS with
    an explicit path and one current-arc pointer per node finds a blocking
    flow in it.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.head: list[int] = []
        self.cap: list[int] = []
        self.out: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: int) -> int:
        idx = len(self.head)
        self.head.append(v)
        self.cap.append(cap)
        self.out[u].append(idx)
        self.head.append(u)
        self.cap.append(0)
        self.out[v].append(idx + 1)
        return idx

    def run(self, s: int, t: int) -> int:
        head, cap, out = self.head, self.cap, self.out
        total = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                next_level = level[u] + 1
                for idx in out[u]:
                    v = head[idx]
                    if cap[idx] > 0 and level[v] < 0:
                        level[v] = next_level
                        queue.append(v)
            if level[t] < 0:
                return total
            total += self._blocking_flow(s, t, level)

    def reachable(self, s: int) -> list[bool]:
        """Nodes reachable from s along arcs with residual capacity; after
        ``run(s, t)`` they form the source side of a minimum s-t cut."""
        head, cap, out = self.head, self.cap, self.out
        seen = [False] * self.n
        seen[s] = True
        queue = [s]
        for u in queue:
            for idx in out[u]:
                v = head[idx]
                if cap[idx] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        head, cap, out = self.head, self.cap, self.out
        ptr = [0] * self.n
        path: list[int] = []  # arcs from s to u
        u = s
        pushed = 0
        while True:
            if u == t:
                bottleneck = min(cap[idx] for idx in path)
                for idx in path:
                    cap[idx] -= bottleneck
                    cap[idx ^ 1] += bottleneck
                pushed += bottleneck
                # retreat to the tail of the first saturated arc
                cut = next(k for k, idx in enumerate(path) if cap[idx] == 0)
                u = head[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = out[u]
            i = ptr[u]
            next_level = level[u] + 1
            while i < len(arcs) and not (cap[arcs[i]] > 0 and level[head[arcs[i]]] == next_level):
                i += 1
            ptr[u] = i
            if i < len(arcs):
                path.append(arcs[i])
                u = head[arcs[i]]
                continue
            # dead end: drop u from the level graph and retreat one arc
            if u == s:
                return pushed
            level[u] = -1
            u = head[path.pop() ^ 1]
            ptr[u] += 1


def feasible_flow(num_nodes: int, arcs: Sequence[Arc],
                  source: int, sink: int) -> Optional[list[int]]:
    """A feasible integral flow meeting all arc bounds, or None.

    Returns per-arc flow values in input order. Raises ValueError on a
    malformed network (dangling endpoints, low > up).
    """
    for a in arcs:
        if not (0 <= a.tail < num_nodes and 0 <= a.head < num_nodes):
            raise ValueError(f"dangling arc endpoint: {a}")
        if a.low > a.up:
            raise ValueError(f"lower bound exceeds capacity: {a}")
        if a.low < 0:
            raise ValueError(f"negative lower bound: {a}")
    if not (0 <= source < num_nodes and 0 <= sink < num_nodes):
        raise ValueError("source or sink out of range")

    ss, tt = num_nodes, num_nodes + 1
    net = _MaxFlow(num_nodes + 2)
    arc_idx = [net.add(a.tail, a.head, a.up - a.low) for a in arcs]
    excess = [0] * num_nodes
    for a in arcs:
        excess[a.head] += a.low
        excess[a.tail] -= a.low
    net.add(sink, source, _INF)
    required = 0
    for v in range(num_nodes):
        if excess[v] > 0:
            net.add(ss, v, excess[v])
            required += excess[v]
        elif excess[v] < 0:
            net.add(v, tt, -excess[v])
    if net.run(ss, tt) != required:
        return None
    # flow on an original arc = lower bound + used reduced capacity
    return [arcs[i].low + (arcs[i].up - arcs[i].low - net.cap[arc_idx[i]])
            for i in range(len(arcs))]


def gf_factor(graph: BipartiteGraph, bounds: DegreeBounds) -> Optional[frozenset[tuple[int, int]]]:
    """Edge set of a subgraph H with g(v) <= d_H(v) <= f(v) for all v, or None."""
    if len(bounds.g_x) != graph.nx or len(bounds.g_y) != graph.ny:
        raise ValueError("bounds must cover every vertex of the graph")
    # node ids: 0 = source, 1..nx = X, nx+1..nx+ny = Y, nx+ny+1 = sink
    src = 0
    snk = graph.nx + graph.ny + 1
    arcs: list[Arc] = []
    for x in range(graph.nx):
        arcs.append(Arc(src, 1 + x, bounds.g_x[x], bounds.f_x[x]))
    edge_arc_start = len(arcs)
    edges = graph.edges()
    for x, y in edges:
        arcs.append(Arc(1 + x, 1 + graph.nx + y, 0, 1))
    for y in range(graph.ny):
        arcs.append(Arc(1 + graph.nx + y, snk, bounds.g_y[y], bounds.f_y[y]))
    flow = feasible_flow(snk + 1, arcs, src, snk)
    if flow is None:
        return None
    return frozenset(
        edges[i] for i in range(len(edges)) if flow[edge_arc_start + i] == 1
    )


def factor_degrees_ok(graph: BipartiteGraph, bounds: DegreeBounds,
                      factor: frozenset[tuple[int, int]]) -> bool:
    """Re-validate a factor's degree bounds vertex by vertex."""
    dx = [0] * graph.nx
    dy = [0] * graph.ny
    for x, y in factor:
        if not graph.has_edge(x, y):
            return False
        dx[x] += 1
        dy[y] += 1
    return all(bounds.g_x[x] <= dx[x] <= bounds.f_x[x] for x in range(graph.nx)) and \
        all(bounds.g_y[y] <= dy[y] <= bounds.f_y[y] for y in range(graph.ny))
