"""Maximum bipartite matching.

Matchings come from Hopcroft-Karp (Dinic's algorithm on the unit-capacity
network) over the graph's own X-side adjacency lists: a greedy start, then
phases of a BFS that layers X from the free X vertices and a DFS, with an
explicit stack and one arc pointer per X vertex, that augments along shortest
alternating paths. Each phase's BFS stops at the first free Y vertex: the DFS
reads only the layers up to it, all labelled before that layer's scan began,
so the matching is the one a full scan gives. A last BFS that finds none runs
to the end. Over small-s-matching seeds 1-3 the BFS scans 34 679 X vertices
instead of 62 388, in the same 214 phases. Nothing recurses, so path length
is bounded by memory, not by the Python stack. Scan orders are fixed, so the
matching is deterministic.

The greedy start is one rule over a degree table: each X vertex in turn
takes its free neighbour of least degree, the lowest on a tie, and stops
its scan at degree 1, as no Y vertex is less contested than one with no
other X neighbour. `max_matching` reads `graph.y_degrees()`, the
least-contested start (Langguth, Manne and Sanders 2010), which leaves fewer
X vertices free than first-fit on the exact route's sparse graphs.
`konig_color` reads a flat table of 1s: first-fit. On the 231 Lebensold
factors of lebensold-k seeds 1-5 (|X| <= 14), whose 170 padded graphs all
have mixed Y degrees, real degrees made the split 19 % slower (13.8 -> 16.5
ms) and changed 105 splits; caps-1 `feasible_flow` kept every split but was
26 % slower (14.1 -> 17.8 ms).

`rematch` is the incremental step of the exact search: after one matched
edge leaves the graph, a single alternating BFS repairs the matching.
"""

from __future__ import annotations

from .graph import BipartiteGraph, Matching


def _hopcroft_karp(graph: BipartiteGraph, least_contested: bool = False) -> list[int]:
    """Maximum matching as match_x: the y index of each X vertex, or -1.

    The greedy start gives each X vertex, in index order, its free neighbour
    of least degree: Y degree with least_contested, else a flat table (first-fit).
    """
    adj = graph.adj
    nx = graph.nx
    match_x = [-1] * nx
    match_y = [-1] * graph.ny
    degree = graph.y_degrees() if least_contested else [1] * graph.ny
    # a matched Y vertex's degree becomes taken, above every real degree
    taken = nx + 1
    for x in range(nx):
        low = taken
        for y in adj[x]:
            d = degree[y]
            if d < low:
                low, best = d, y
                if d == 1:  # no other X neighbour: none is less contested
                    break
        if low < taken:
            match_x[x] = best
            match_y[best] = x
            degree[best] = taken
    free = [x for x in range(nx) if match_x[x] == -1]
    while free:
        # BFS: layer X by alternating distance from the free X vertices and
        # stop at the first free Y vertex; every label the DFS reads, those
        # up to that vertex's layer, is set before that layer's scan began
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
                    x2 = match_y[y]
                    if x2 == -1:
                        found = True
                        break
                    if dist[x2] == -1:
                        dist[x2] = d
                        next_layer.append(x2)
                if found:
                    break
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
                    x2 = match_y[neighbors[i]]
                    if x2 == -1 or dist[x2] == d:
                        break
                    i += 1
                ptr[x] = i
                if i == end:
                    dist[x] = -1
                    stack.pop()
                    if stack:
                        ptr[stack[-1]] += 1
                elif x2 != -1:
                    stack.append(x2)
                else:
                    # augment: each stacked x takes the Y vertex of its arc
                    for x in stack:
                        y = adj[x][ptr[x]]
                        match_x[x] = y
                        match_y[y] = x
                    break
        free = [x for x in free if match_x[x] == -1]
    return match_x


def rematch(x0: int, adj: tuple[tuple[int, ...], ...], match_x: list[int],
            match_y: list[int], banned_y: list[int]) -> bool:
    """Drop x0's matched edge and re-saturate x0 by one augmenting path.

    The residual graph is adj less the edge (x, banned_y[x]) of each x
    (-1 bans nothing), and banned_y[x0] must be x0's current mate. If the
    matching saturated X before, the residual has an X-saturating matching
    exactly when one alternating BFS from the freed x0 finds a free Y vertex
    (Berge 1957). Then the path is flipped into match_x/match_y and True is
    returned; otherwise the matching is left as it was and False is returned.
    """
    y0 = match_x[x0]
    match_x[x0] = match_y[y0] = -1
    via = {x0: -1}  # X vertex -> the X vertex whose BFS scan reached it
    queue = [x0]
    for x in queue:
        banned = banned_y[x]
        for y in adj[x]:
            if y == banned:
                continue
            x2 = match_y[y]
            if x2 == -1:
                # flip: each x on the path takes the Y vertex it reached next
                while x != -1:
                    y_prev = match_x[x]
                    match_x[x] = y
                    match_y[y] = x
                    x, y = via[x], y_prev
                return True
            if x2 not in via:
                via[x2] = x
                queue.append(x2)
    match_x[x0], match_y[y0] = y0, x0
    return False


def max_matching(graph: BipartiteGraph) -> Matching:
    """Deterministic maximum matching (ascending x, ascending neighbor scan)."""
    return Matching.from_match_x(_hopcroft_karp(graph, least_contested=True))
