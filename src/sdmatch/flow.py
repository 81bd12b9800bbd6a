"""One degree network under both polynomial routes, and the capped factor.

``feasible_flow(graph, cap_x, cap_y)`` is one max flow on source -> x
(capacity cap_x[x]), x -> y for each edge (capacity 1) and y -> sink
(capacity cap_y[y]). A flow of value sum(cap_x) is a factor with degree
exactly cap_x[x] on X and at most cap_y[y] on Y; a smaller one leaves W, the
X vertices on the source side of the minimal minimum cut. The S-pair factor
(2 on S, 1 on the rest of X, at most 2 on Y) and Lebensold's k-factor (k
everywhere) are both this network, so neither needs lower bounds.
``gf_factor`` is its validating front door: an X vertex whose cap exceeds its
degree refutes first, with no arc built, which is Hoffman's condition on the
cut around one vertex. The max flow underneath is Dinic's algorithm, with no
recursion in either phase. A factor comes back as a tuple of edges in
``graph.edges()`` order.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .graph import BipartiteGraph


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


def feasible_flow(graph: BipartiteGraph, cap_x: Sequence[int], cap_y: Sequence[int]
                  ) -> tuple[Optional[tuple[tuple[int, int], ...]], Optional[tuple[int, ...]]]:
    """(factor, None) or (None, W) from one max flow on source -> x (capacity
    cap_x[x]), x -> y (1) and y -> sink (cap_y[y]).

    The factor, the edges carrying flow in ``graph.edges()`` order, has degree
    cap_x[x] at each x and at most cap_y[y] at each y. When none exists, W is
    the nonempty set of X vertices on the source side of the minimal minimum
    cut: sum_{x in W} cap_x[x] > sum_y min(cap_y[y], |N(y) cap W|).
    """
    nx, ny = graph.nx, graph.ny
    # node ids: 0 = source, 1..nx = X, nx+1..nx+ny = Y, nx+ny+1 = sink
    src, snk = 0, nx + ny + 1
    net = _MaxFlow(snk + 1)
    for x, c in enumerate(cap_x):
        net.add(src, 1 + x, c)
    edges = graph.edges()
    edge_arcs = [net.add(1 + x, 1 + nx + y, 1) for x, y in edges]
    for y, c in enumerate(cap_y):
        net.add(1 + nx + y, snk, c)
    if net.run(src, snk) == sum(cap_x):
        return tuple(e for e, idx in zip(edges, edge_arcs) if net.cap[idx] == 0), None
    return None, tuple(x for x in range(nx) if net.level[1 + x] >= 0)


def gf_factor(graph: BipartiteGraph, cap_x: Sequence[int], cap_y: Sequence[int]
              ) -> Optional[tuple[tuple[int, int], ...]]:
    """The edges, in ``graph.edges()`` order, of a subgraph H with d_H(x) ==
    cap_x[x] at each X vertex and d_H(y) <= cap_y[y] at each Y vertex, or None.

    An X vertex with fewer neighbours than its cap refutes before any arc is
    built; otherwise one ``feasible_flow`` decides. Raises ValueError on a
    negative cap or on caps that do not cover every vertex.
    """
    if len(cap_x) != graph.nx or len(cap_y) != graph.ny:
        raise ValueError("caps must cover every vertex of the graph")
    if min(cap_x, default=0) < 0 or min(cap_y, default=0) < 0:
        raise ValueError("degree caps must be nonnegative")
    # Hoffman's condition on the cut around one vertex
    if any(len(graph.adj[x]) < c for x, c in enumerate(cap_x)):
        return None
    return feasible_flow(graph, cap_x, cap_y)[0]
