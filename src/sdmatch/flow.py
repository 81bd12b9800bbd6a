"""One degree network under both polynomial routes, and the capped factor.

``feasible_flow(graph, cap_x, cap_y)`` is one max flow on source -> x
(capacity cap_x[x]), x -> y for each edge (1) and y -> sink (cap_y[y]). It
returns a factor with degree exactly cap_x[x] on X and at most cap_y[y] on Y,
or else W, the X vertices on the source side of the minimal minimum cut. The
S-pair factor (2 on S, 1 on the rest of X, at most 2 on Y) and Lebensold's
k-factor (k everywhere) are both this network. ``gf_factor`` is its
validating front door, and two counts refute before the flow, each Hoffman's
condition on one cut: an X vertex whose cap exceeds its degree (the cut
around one vertex), and sum_x cap_x[x] > sum_y min(cap_y[y], deg y) (the cut
W = X).

The network is a bipartite b-matching, so the engine is Hopcroft-Karp with
per-vertex caps on the graph's adjacency lists: a greedy start, then phases
of a BFS that layers X from the X vertices with room and a DFS with an
explicit stack and one arc pointer per X vertex. Nothing recurses. W is what
the last BFS reached. Each Y vertex keeps its holders in ascending order, the
order in which Dinic's algorithm on the network scans its reverse arcs, so
each phase augments as Dinic's would and the factor stays the same. A factor
is a ``BipartiteGraph``, a subgraph on the graph's vertices.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from itertools import chain
from typing import Optional, Sequence

from .graph import BipartiteGraph


def feasible_flow(graph: BipartiteGraph, cap_x: Sequence[int], cap_y: Sequence[int]
                  ) -> tuple[Optional[BipartiteGraph], Optional[tuple[int, ...]]]:
    """(H, None) or (None, W) from one max flow on source -> x (capacity
    cap_x[x]), x -> y (1) and y -> sink (cap_y[y]).

    H, the edges carrying flow as a graph on the same vertices (rows
    ascending), has degree cap_x[x] at each x and at most cap_y[y] at each y.
    When none exists, W is the nonempty set of X vertices on the source side
    of the minimal minimum cut: sum_{x in W} cap_x[x] > sum_y min(cap_y[y], |N(y) cap W|).
    """
    adj, nx = graph.adj, graph.nx
    room_x, room_y = list(cap_x), list(cap_y)
    # the X vertices that send y a unit, ascending: the order in which Dinic's
    # algorithm scans y's reverse arcs, so the DFS below steps back through the
    # same holder and finds the same factor. It is the one record of the flow:
    # x sends y a unit exactly when x is in holders[y].
    holders: list[list[int]] = [[] for _ in range(graph.ny)]
    for x in range(nx):
        for y in adj[x]:
            if room_x[x] and room_y[y]:
                holders[y].append(x)
                room_x[x] -= 1
                room_y[y] -= 1
    free = [x for x in range(nx) if room_x[x]]
    dist: list[int] = []
    while free:
        # BFS: layer X by alternating distance from the X vertices with room
        # and stop after the first layer that reaches a Y vertex with room
        dist = [-1] * nx
        for x in free:
            dist[x] = 0
        layer = free
        found = False
        while layer and not found:
            next_layer = []
            for x in layer:
                d = dist[x] + 1
                for y in adj[x]:
                    held_by = holders[y]
                    if x in held_by:
                        continue
                    if room_y[y]:
                        found = True
                    for x2 in held_by:
                        if dist[x2] == -1:
                            dist[x2] = d
                            next_layer.append(x2)
            layer = next_layer
        if not found:
            break
        for x in layer:  # beyond the shortest augmenting path length
            dist[x] = -1
        # DFS: ptr[x] is the arc x is trying; a dead X vertex leaves the layers
        ptr = [0] * nx
        for root in free:
            stack = [root]
            while stack:
                x = stack[-1]
                neighbors = adj[x]
                i, end, d = ptr[x], len(neighbors), dist[x] + 1
                while i < end:
                    y = neighbors[i]
                    held_by = holders[y]
                    if x not in held_by:
                        for x2 in held_by:
                            if dist[x2] == d:
                                break
                        else:
                            x2 = -1
                        if x2 != -1 or room_y[y]:
                            break
                    i += 1
                ptr[x] = i
                if i == end:
                    dist[x] = -1
                    stack.pop()
                elif x2 != -1:
                    stack.append(x2)
                else:
                    # augment: each stacked x takes the Y vertex of its arc
                    # and gives up the one its parent took
                    y = -1
                    for x in stack:
                        given, y = y, adj[x][ptr[x]]
                        if given != -1:
                            holders[given].remove(x)
                        insort(holders[y], x)
                    room_y[y] -= 1
                    room_x[root] -= 1
                    if not room_x[root]:
                        break
                    del stack[1:]
        free = [x for x in free if room_x[x]]
    if not free:
        rows = tuple(tuple(y for y in adj[x] if x in holders[y]) for x in range(nx))
        return BipartiteGraph(nx, graph.ny, rows), None
    return None, tuple(x for x in range(nx) if dist[x] >= 0)


def gf_factor(graph: BipartiteGraph, cap_x: Sequence[int], cap_y: Sequence[int]
              ) -> Optional[BipartiteGraph]:
    """A subgraph H of graph, on its vertices, with d_H(x) == cap_x[x] at each
    X vertex and d_H(y) <= cap_y[y] at each Y vertex, or None.

    Two cuts refute before any flow runs, each in O(E): an X vertex with
    fewer neighbours than its cap, and caps on X that sum past
    sum_y min(cap_y[y], deg y), what Y can take. Otherwise one
    ``feasible_flow`` decides. Raises ValueError on a negative cap or on caps
    that do not cover every vertex.
    """
    if len(cap_x) != graph.nx or len(cap_y) != graph.ny:
        raise ValueError("caps must cover every vertex of the graph")
    if min(cap_x, default=0) < 0 or min(cap_y, default=0) < 0:
        raise ValueError("degree caps must be nonnegative")
    # Hoffman's condition on the cut around one vertex, then on W = X
    if any(len(graph.adj[x]) < c for x, c in enumerate(cap_x)):
        return None
    degree_y = Counter(chain.from_iterable(graph.adj))
    if sum(cap_x) > sum(min(c, degree_y[y]) for y, c in enumerate(cap_y)):
        return None
    return feasible_flow(graph, cap_x, cap_y)[0]
