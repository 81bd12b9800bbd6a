"""Proper edge coloring of bipartite graphs with exactly Delta colors.

konig_color inserts edges one at a time and repairs conflicts by flipping a
two-color alternating chain (the constructive content of the line-coloring
theorem). It splits the degree factors of the polynomial S-pair route and of
k disjoint X-saturating matchings into their matchings.

Vertices are ordered globally: X vertex i has id i, Y vertex j has id nx + j.
Color indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import BipartiteGraph, Matching


@dataclass(frozen=True)
class EdgeColoring:
    colors: dict[tuple[int, int], int]
    palette_size: int

    def color_class(self, color: int) -> Matching:
        return Matching.from_edges(e for e, c in self.colors.items() if c == color)


def max_degree(graph: BipartiteGraph) -> int:
    degs = [len(a) for a in graph.adj] + [len(a) for a in graph.y_adj]
    return max(degs, default=0)


def konig_color(graph: BipartiteGraph) -> EdgeColoring:
    """Proper coloring with exactly Delta colors (0 colors for edgeless input)."""
    delta = max_degree(graph)
    nx = graph.nx
    # per global vertex: color -> neighbor global id
    used: list[dict[int, int]] = [dict() for _ in range(nx + graph.ny)]
    colors: dict[tuple[int, int], int] = {}

    def lowest_free(v: int) -> int:
        c = 1
        while c in used[v]:
            c += 1
        return c

    for x, y in graph.edges():
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
                ex, ey = (p, q - nx) if p < nx else (q, p - nx)
                colors[(ex, ey)] = other
                used[p][other] = q
                used[q][other] = p
        colors[(x, y)] = a
        used[u][a] = v
        used[v][a] = u
    return EdgeColoring(colors, delta)
