"""Feasible flow with lower bounds, the capped degree factor, and degree_flow.

The factor problem is reduced to feasible flow: source -> each X vertex with
degree exactly cap_x(x), each graph edge as a unit-capacity arc, each Y vertex
-> sink with capacity cap_y(y) and no lower bound. An X vertex whose cap
exceeds its degree refutes first, with no arc built: that is Hoffman's
condition on the cut around one vertex. Arcs are plain (tail, head, low, up)
tuples. Lower bounds are removed via the standard excess/deficit super-source
and super-sink transformation; a fixed arc (low == up) only shifts excess and
never enters the network, so no source -> X arc does. The max flow underneath
is Dinic's algorithm, with no recursion in either phase. Both gf_factor and
degree_flow return a factor as a tuple of edges in ``graph.edges()`` order.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graph import BipartiteGraph

_INF = 1 << 30


class _MaxFlow:
    """Dinic's max flow on paired arcs (arc i and its reverse i ^ 1).

    Arcs are explored in insertion order, so the flow found is deterministic.
    Both phases are iterative: a BFS builds the level graph, then a DFS with
    an explicit path and one current-arc pointer per node finds a blocking
    flow in it.

    ``run(s, t)`` keeps the level array of its last BFS, the one that did not
    reach t, as ``level``: level[v] >= 0 exactly for the nodes reachable from
    s in the residual graph, the source side of the minimal minimum s-t cut.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.head: list[int] = []
        self.cap: list[int] = []
        self.out: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: int) -> int:
        idx = len(self.head)
        self.head += (v, u)
        self.cap += (cap, 0)
        self.out[u].append(idx)
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
                self.level = level
                return total
            total += self._blocking_flow(s, t, level)

    def _blocking_flow(self, s: int, t: int, level: list[int]) -> int:
        head, cap, out = self.head, self.cap, self.out
        ptr = [0] * self.n
        path: list[int] = []  # arcs from s to u
        u = s
        pushed = 0
        while True:
            if u == t:
                # the first arc of least capacity is the first one saturated
                cut, bottleneck = 0, cap[path[0]]
                for k, idx in enumerate(path):
                    if cap[idx] < bottleneck:
                        cut, bottleneck = k, cap[idx]
                for idx in path:
                    cap[idx] -= bottleneck
                    cap[idx ^ 1] += bottleneck
                pushed += bottleneck
                # retreat to its tail
                u = head[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = out[u]
            i, end, next_level = ptr[u], len(arcs), level[u] + 1
            while i < end:
                idx = arcs[i]
                if cap[idx] and level[head[idx]] == next_level:
                    break
                i += 1
            ptr[u] = i
            if i < end:
                path.append(idx)
                u = head[idx]
                continue
            # dead end: drop u from the level graph and retreat one arc
            if u == s:
                return pushed
            level[u] = -1
            u = head[path.pop() ^ 1]
            ptr[u] += 1


def degree_flow(graph: BipartiteGraph, k: int
                ) -> tuple[Optional[tuple[tuple[int, int], ...]], Optional[tuple[int, ...]]]:
    """(factor, None) or (None, W) from one max flow on source -> x (capacity
    k), x -> y (1) and y -> sink (k).

    The factor, the edges carrying flow in ``graph.edges()`` order, has degree
    k at each x and at most k at each y. When none exists, W is the nonempty
    set of X vertices on the source side of the minimal minimum cut:
    k|W| > sum_y min(k, |N(y) cap W|).
    """
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
        return tuple(e for e, idx in zip(edges, edge_arcs) if net.cap[idx] == 0), None
    return None, tuple(x for x in range(nx) if net.level[1 + x] >= 0)


def feasible_flow(num_nodes: int, arcs: Sequence[tuple[int, int, int, int]],
                  source: int, sink: int) -> Optional[list[int]]:
    """A feasible integral flow meeting all arc bounds, or None.

    Each arc is a (tail, head, low, up) tuple. Returns per-arc flow values
    in input order; a fixed arc (low == up) shifts its bound between the
    excesses of its ends, stays out of the max-flow network, and reports
    up. Raises ValueError on a malformed network (dangling endpoints,
    low > up, low < 0).
    """
    ss, tt = num_nodes, num_nodes + 1
    net = _MaxFlow(num_nodes + 2)
    excess = [0] * num_nodes
    arc_idx = []  # the network arc of each arc, -1 for a fixed one
    for a in arcs:
        tail, head, low, up = a
        if not (0 <= tail < num_nodes and 0 <= head < num_nodes):
            raise ValueError(f"dangling arc endpoint: {a}")
        if low > up:
            raise ValueError(f"lower bound exceeds capacity: {a}")
        if low < 0:
            raise ValueError(f"negative lower bound: {a}")
        excess[head] += low
        excess[tail] -= low
        arc_idx.append(net.add(tail, head, up - low) if low < up else -1)
    if not (0 <= source < num_nodes and 0 <= sink < num_nodes):
        raise ValueError("source or sink out of range")
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
    # flow on a network arc = its upper bound less the capacity left over
    cap = net.cap
    return [a[3] if idx < 0 else a[3] - cap[idx] for a, idx in zip(arcs, arc_idx)]


def gf_factor(graph: BipartiteGraph, cap_x: Sequence[int], cap_y: Sequence[int]
              ) -> Optional[tuple[tuple[int, int], ...]]:
    """The edges, in ``graph.edges()`` order, of a subgraph H with d_H(x) ==
    cap_x[x] at each X vertex and d_H(y) <= cap_y[y] at each Y vertex, or None.

    An X vertex with fewer neighbours than its cap refutes before any arc is
    built; otherwise one feasible flow decides. Raises ValueError on a
    negative cap or on caps that do not cover every vertex.
    """
    nx = graph.nx
    if len(cap_x) != nx or len(cap_y) != graph.ny:
        raise ValueError("caps must cover every vertex of the graph")
    if min(cap_x, default=0) < 0 or min(cap_y, default=0) < 0:
        raise ValueError("degree caps must be nonnegative")
    # Hoffman's condition on the cut around one vertex
    adj = graph.adj
    if any(len(adj[x]) < c for x, c in enumerate(cap_x)):
        return None
    # node ids: 0 = source, 1..nx = X, nx+1..nx+ny = Y, nx+ny+1 = sink
    src = 0
    snk = nx + graph.ny + 1
    arcs = [(src, 1 + x, c, c) for x, c in enumerate(cap_x)]
    edges = graph.edges()
    arcs += [(1 + x, 1 + nx + y, 0, 1) for x, y in edges]
    arcs += [(1 + nx + y, snk, 0, c) for y, c in enumerate(cap_y)]
    flow = feasible_flow(snk + 1, arcs, src, snk)
    if flow is None:
        return None
    return tuple(e for e, used in zip(edges, flow[nx:]) if used)
