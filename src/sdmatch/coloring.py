"""Splitting a bipartite factor of maximum degree at most k into k matchings.

konig_color inserts edges one at a time and repairs conflicts by flipping a
two-color alternating chain (the constructive content of the line-coloring
theorem). It splits the degree factors of the polynomial S-pair route and of
k disjoint X-saturating matchings into their matchings.

Vertices are ordered globally: X vertex i has id i, Y vertex j has id nx + j.
Color indices are 1-based.
"""

from __future__ import annotations

from typing import Iterable

from .graph import BipartiteGraph, Matching


def konig_color(graph: BipartiteGraph, edges: Iterable[tuple[int, int]],
                k: int) -> tuple[Matching, ...]:
    """The k color classes of a proper coloring of the given edges of graph,
    colored in the order given; class i holds color i + 1.

    Raises ValueError when an edge is not in graph or is given twice, and
    when some vertex has more than k of the edges.
    """
    nx, adj = graph.nx, graph.adj
    edges = tuple(edges)
    for x, y in edges:
        if not (0 <= x < nx and y in adj[x]):
            raise ValueError(f"({x}, {y}) is not an edge of the graph")
    if len(set(edges)) != len(edges):
        raise ValueError("an edge is given twice")
    # per global vertex: color -> neighbor global id
    used: list[dict[int, int]] = [dict() for _ in range(nx + graph.ny)]

    def lowest_free(v: int) -> int:
        c = 1
        while c in used[v]:
            c += 1
        if c > k:
            raise ValueError(f"a vertex has more than k = {k} of the edges")
        return c

    for x, y in edges:
        u, v = x, nx + y
        a = lowest_free(u)
        if a in used[v]:
            b = lowest_free(v)
            # flip the a/b alternating chain starting at v; bipartite parity
            # guarantees it never reaches u, so afterwards a is free at v
            chain: list[tuple[int, int, int]] = []
            cur, col = v, a
            while col in used[cur]:
                nxt = used[cur][col]
                chain.append((cur, nxt, col))
                cur, col = nxt, (b if col == a else a)
            for p, q, col in chain:
                del used[p][col]
                del used[q][col]
            for p, q, col in chain:
                other = b if col == a else a
                used[p][other] = q
                used[q][other] = p
        used[u][a] = v
        used[v][a] = u
    return tuple(Matching.from_edges((x, used[x][c] - nx) for x in range(nx) if c in used[x])
                 for c in range(1, k + 1))
