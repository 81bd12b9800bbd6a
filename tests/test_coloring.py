import random

from sdmatch import konig_color
from sdmatch import BipartiteGraph, is_matching
from sdmatch.coloring import max_degree
from sdmatch.flow import gf_factor
from conftest import is_proper, random_graph


def test_c8_cycle_two_colors(c8_gadget):
    inst, gm = c8_gadget
    coloring = konig_color(inst.graph)
    assert coloring.palette_size == 2
    assert is_proper(inst.graph, coloring)
    # alternation around the cycle
    for j in range(1, 9):
        e1 = gm.cycle_edge(1, j)
        e2 = gm.cycle_edge(1, j % 8 + 1)
        assert coloring.colors[e1] != coloring.colors[e2]


def test_star_k13_three_colors():
    g = BipartiteGraph.from_edges(1, 3, [(0, 0), (0, 1), (0, 2)])
    coloring = konig_color(g)
    assert coloring.palette_size == 3
    assert sorted(coloring.colors.values()) == [1, 2, 3]


def test_konig_random_delta_four():
    rng = random.Random(11)
    found = 0
    while found < 20:
        g = random_graph(rng, 10, 10, 0.35)
        if max_degree(g) != 4:
            continue
        found += 1
        coloring = konig_color(g)
        assert coloring.palette_size == 4
        assert is_proper(g, coloring)


def test_konig_edgeless():
    g = BipartiteGraph.from_edges(3, 3, [])
    assert konig_color(g).palette_size == 0


def test_color_classes_are_matchings():
    rng = random.Random(12)
    for _ in range(50):
        g = random_graph(rng, 6, 6, 0.4)
        coloring = konig_color(g)
        union = set()
        for c in range(1, coloring.palette_size + 1):
            cls = coloring.color_class(c)
            assert is_matching(g, cls.edges)
            union.update(cls.edges)
        assert union == g.edge_set


def test_factor_coloring_uses_both_colors_at_s_vertices():
    rng = random.Random(14)
    checked = 0
    while checked < 30:
        g = random_graph(rng, rng.randint(2, 5), rng.randint(2, 6), 0.6)
        s_set = list(range(1, g.nx))  # |S| = |X| - 1
        # the S-pair caps: 1 at x0 outside S, 2 on S, at most 2 on Y
        factor = gf_factor(g, [1] + [2] * len(s_set), [2] * g.ny)
        if factor is None:
            continue
        checked += 1
        sub = BipartiteGraph.from_edges(g.nx, g.ny, factor)
        coloring = konig_color(sub)
        assert coloring.palette_size == 2
        for x in s_set:
            incident = {coloring.colors[(x, y)] for y in sub.adj[x]}
            assert incident == {1, 2}
