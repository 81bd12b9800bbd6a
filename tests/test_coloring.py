import random
import time

import pytest

from sdmatch import konig_color
from sdmatch import BipartiteGraph, is_matching
from sdmatch.flow import feasible_flow, gf_factor
from sdmatch.graph import random_graph
from conftest import factor_degrees_ok, is_proper, k22, max_degree, y_adj


def nonempty(classes) -> int:
    return sum(1 for cls in classes if cls)


def test_c8_cycle_two_colors(c8_gadget):
    inst, gn = c8_gadget
    classes = konig_color(inst.graph, 2)
    assert nonempty(classes) == 2
    assert is_proper(inst.graph.edges(), classes)
    # alternation around the cycle
    first = classes[0].edge_set
    for j in range(1, 9):
        e1 = gn.cycle_edge(1, j)
        e2 = gn.cycle_edge(1, j % 8 + 1)
        assert (e1 in first) != (e2 in first)


def test_star_k13_three_colors():
    g = BipartiteGraph.from_edges(1, 3, [(0, 0), (0, 1), (0, 2)])
    classes = konig_color(g, 3)
    assert nonempty(classes) == 3
    assert [len(cls) for cls in classes] == [1, 1, 1]


def test_konig_random_delta_four():
    rng = random.Random(11)
    found = 0
    while found < 20:
        g = random_graph(rng, 10, 10, 0.35)
        if max_degree(g) != 4:
            continue
        found += 1
        classes = konig_color(g, 4)
        assert nonempty(classes) == 4
        assert is_proper(g.edges(), classes)


def test_konig_edgeless():
    g = BipartiteGraph.from_edges(3, 3, [])
    assert konig_color(g, 0) == ()
    assert nonempty(konig_color(g, 3)) == 0


def test_color_classes_are_matchings():
    rng = random.Random(12)
    for _ in range(50):
        g = random_graph(rng, 6, 6, 0.4)
        classes = konig_color(g, max_degree(g))
        union = set()
        for cls in classes:
            assert is_matching(g, cls.edges)
            union.update(cls.edges)
        assert union == g.edge_set


@pytest.mark.parametrize("nx, ny, edges, k", [
    (1, 3, [(0, 0), (0, 1), (0, 2)], 2),
    # the Y vertex is the one over k: its third edge meets two colors there
    (3, 1, [(0, 0), (1, 0), (2, 0)], 2),
    (2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], 1),
    (1, 1, [(0, 0)], 0),
], ids=["x-over-k", "y-over-k", "c4-one-color", "no-colors"])
def test_konig_color_rejects_a_vertex_over_k(nx, ny, edges, k):
    g = BipartiteGraph.from_edges(nx, ny, edges)
    with pytest.raises(ValueError, match="more than k"):
        konig_color(g, k)
    # the edges fit once k reaches the largest degree
    assert is_proper(edges, konig_color(g, max_degree(g)))


def test_konig_color_splits_a_subgraph_in_the_order_given():
    # the 4-cycle in h.edges() order: its first edge gets color 1
    first = konig_color(k22(), 2)
    assert [cls.edges for cls in first] == [((0, 0), (1, 1)), ((0, 1), (1, 0))]
    # a matching inside it takes one color
    matching = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
    assert konig_color(matching, 1) == (first[0],)


def test_factor_coloring_uses_both_colors_at_s_vertices():
    rng = random.Random(14)
    checked = 0
    while checked < 30:
        g = random_graph(rng, rng.randint(2, 5), rng.randint(2, 6), 0.6)
        s_set = list(range(1, g.nx))  # |S| = |X| - 1
        # the S-pair caps: 1 at x0 outside S, 2 on S, at most 2 on Y
        h = gf_factor(g, [1] + [2] * len(s_set), [2] * g.ny)
        if h is None:
            continue
        checked += 1
        classes = konig_color(h, 2)
        assert nonempty(classes) == 2
        assert is_proper(h.edges(), classes)
        for x in s_set:
            assert all(x in cls.covered_x for cls in classes)


def test_split_is_proper_for_every_k_from_the_max_degree():
    # k = max degree .. max degree + 3: odd levels peel a matching first,
    # and k = 5, 6, 7 pass through several levels
    rng = random.Random(15)
    seen_k = set()
    short_x = short_y = False
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 12), rng.randint(1, 12), rng.uniform(0.2, 0.9))
        delta = max_degree(g)
        for k in range(delta, delta + 4):
            classes = konig_color(g, k)
            assert len(classes) == k
            assert is_proper(g.edges(), classes)
            seen_k.add(k)
            if k % 2 and k >= 3:
                short_x |= any(0 < len(a) < k for a in g.adj)
                short_y |= any(0 < len(xs) < k for xs in y_adj(g))
    assert {3, 5, 6, 7} <= seen_k and short_x and short_y


def test_lebensold_factor_classes_saturate_x():
    rng = random.Random(16)
    for k in range(1, 7):
        split = 0
        while split < 5:
            nx = rng.randint(2, 10)
            g = random_graph(rng, nx, nx + rng.randint(0, 6), min(1.0, (k + 2) / nx))
            h, _ = feasible_flow(g, [k] * g.nx, [k] * g.ny)
            if h is None:
                continue
            split += 1
            classes = konig_color(h, k)
            assert is_proper(h.edges(), classes)
            assert all(cls.covered_x == frozenset(range(nx)) for cls in classes)


def test_a_factor_is_a_subgraph_whose_classes_cover_it():
    # random caps and Lebensold's uniform ones: H has the graph's vertices,
    # each row an ordered subsequence of the graph's within the caps, and its
    # color classes are matchings of H whose union is H
    rng = random.Random(17)
    found = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.randint(0, 12), rng.uniform(0.1, 0.9))
        k = rng.randint(1, 4)
        cap_x = [rng.randint(0, min(k, len(a))) for a in g.adj]
        cap_y = [rng.randint(0, k) for _ in range(g.ny)]
        for caps in ((cap_x, cap_y), ([k] * g.nx, [k] * g.ny)):
            h, _ = feasible_flow(g, *caps)
            if h is None:
                continue
            found += 1
            assert factor_degrees_ok(g, *caps, h)
            classes = konig_color(h, k)
            assert all(is_matching(h, cls.edges) for cls in classes)
            assert set().union(*(cls.edge_set for cls in classes)) == h.edge_set
    assert 100 < found < 400


def labelled_path(n: int) -> BipartiteGraph:
    """The path y0 x0 y1 x1 ... x(n-1) yn, with y_i labelled n - i/2 for even
    i and n + 1 + i//2 for odd i and then ranked: coloring the edges one at a
    time, each new edge clashes at the far end of the path built so far."""
    labels = [n - i // 2 if i % 2 == 0 else n + 1 + i // 2 for i in range(n + 1)]
    rank = {label: r for r, label in enumerate(sorted(labels))}
    ys = [rank[label] for label in labels]
    return BipartiteGraph.from_edges(n, n + 1, [(i, ys[i + j]) for i in range(n) for j in (0, 1)])


def test_labelled_path_splits_in_linear_time():
    # chain flips take minutes here: each new edge flips the whole path
    g = labelled_path(16000)
    start = time.perf_counter()
    classes = konig_color(g, 2)
    assert time.perf_counter() - start < 2
    assert is_proper(g.edges(), classes)
    # the walk runs from one end of the path to the other, so every X vertex
    # has an edge of each class
    assert all(cls.covered_x == frozenset(range(16000)) for cls in classes)
