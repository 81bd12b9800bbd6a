"""Splitting a bipartite factor of maximum degree at most k into k matchings.

konig_color is Gabow's Euler-partition coloring (1976), the constructive
content of König's line-coloring theorem. It splits the degree factors of the
polynomial S-pair route and of k disjoint X-saturating matchings into their
matchings. An explicit work list holds levels (edges, d, first class): edges
in which no vertex has more than d, to be split into classes first ..
first + d - 1.

- Even d: one halving pass. It walks trails, first from the vertices of odd
  degree in ascending global id, then the closed trails, and puts their edges
  alternately into two halves. A trail only ends at a vertex of odd degree,
  and only there does a vertex see one more edge of a half than of the
  other, so a vertex of degree deg gets at most ceil(deg / 2) <= d / 2 edges
  of each half; each half is a level of d / 2. Each vertex's incidence list
  is a stack whose top is its next unwalked edge, so the pass looks at each
  edge twice and is O(E). At d = 2 the pass walks each path from its end and
  then each cycle; a path starts at its end of lowest id, an X vertex when it
  has one, and that end's edge lands in class first.
- Odd d: one matching that covers every vertex of degree d takes class first,
  and the rest is a level of d - 1. The level beside its mirror image, with
  every vertex short of d joined to its own mirror, is the simple form of a
  d-regular bipartite multigraph, so it has a perfect matching (König); one
  Hopcroft-Karp run finds it, and its edges inside the level are the matching.

That is O(E log k) plus one matching per odd level. Vertices are ordered
globally: X vertex i has id i, Y vertex j has id nx + j. Class i holds color
i + 1.
"""

from __future__ import annotations

from itertools import chain

from .graph import BipartiteGraph, Matching
from .matching import _hopcroft_karp


def konig_color(h: BipartiteGraph, k: int) -> tuple[Matching, ...]:
    """The k color classes of a proper coloring of the edges of h; class i
    holds color i + 1.

    Raises ValueError when some vertex has more than k edges.
    """
    nx, ny = h.nx, h.ny
    n = nx + ny
    edges = h.edges()
    degree = [0] * n
    for x, y in edges:
        degree[x] += 1
        degree[nx + y] += 1
    if max(degree, default=0) > k:
        raise ValueError(f"a vertex has more than k = {k} of the edges")
    # walked[i] is the number of the halving pass that walked edge i
    walked = [0] * len(edges)
    passes = 0
    classes = [Matching(())] * k
    # a level is a list of indices into edges
    work = [(list(range(len(edges))), k, 0)]
    while work:
        level, d, first = work.pop()
        if not level:
            continue
        if d == 1:
            match_x = [-1] * nx
            for x, y in map(edges.__getitem__, level):
                match_x[x] = y
            classes[first] = Matching.from_match_x(match_x)
        elif d % 2:
            # the level and its mirror: X vertex x and mirror Y vertex nx + y
            # on one side, Y vertex y and mirror X vertex ny + x on the other
            padded: list[list[int]] = [[] for _ in range(n)]
            for x, y in map(edges.__getitem__, level):
                padded[x].append(y)
                padded[nx + y].append(ny + x)
            for x in range(nx):
                if len(padded[x]) < d:
                    padded[x].append(ny + x)
            for y in range(ny):
                if len(padded[nx + y]) < d:
                    padded[nx + y].append(y)
            match_x = _hopcroft_karp(BipartiteGraph(n, n, tuple(padded)))
            match_x = [y if y < ny else -1 for y in match_x[:nx]]
            classes[first] = Matching.from_match_x(match_x)
            rest = [i for i in level if match_x[edges[i][0]] != edges[i][1]]
            work.append((rest, d - 1, first + 1))
        else:
            passes += 1
            # each vertex's incidence list, last edge first, so pop() gives
            # the edges in the order of the level
            incident: list[list[int]] = [[] for _ in range(n)]
            for i in reversed(level):
                x, y = edges[i]
                incident[x].append(i)
                incident[nx + y].append(i)
            low: list[int] = []
            high: list[int] = []
            # the open trails from their ends, then the closed trails, each of
            # which passes through X
            for v in chain([v for v, inc in enumerate(incident) if len(inc) % 2], range(nx)):
                inc = incident[v]
                half, other = low, high
                while inc:
                    i = inc.pop()
                    if walked[i] == passes:
                        continue
                    walked[i] = passes
                    half.append(i)
                    half, other = other, half
                    x, y = edges[i]
                    v = x if v >= nx else nx + y
                    inc = incident[v]
            work.append((high, d // 2, first + d // 2))
            work.append((low, d // 2, first))
    return tuple(classes)
