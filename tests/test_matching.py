import hashlib
import random

import pytest

from sdmatch import BipartiteGraph, konig_color, max_matching
from sdmatch.flow import feasible_flow
from sdmatch.graph import random_graph
from sdmatch.matching import _hopcroft_karp
from conftest import chain_graph, edge_subset_matchings, k22


def test_empty_graph():
    g = BipartiteGraph.from_edges(3, 3, [])
    assert max_matching(g).edges == ()


def test_k22_perfect():
    g = k22()
    assert len(max_matching(g)) == 2


def test_c8_perfect(c8_gadget):
    inst, _ = c8_gadget
    assert len(max_matching(inst.graph)) == 4


def test_start_gives_each_x_its_least_contested_free_neighbour():
    # y1 has two neighbours and y2 one, so x1 takes y2 where first-fit takes y1
    g = BipartiteGraph.from_edges(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    assert max_matching(g).edges == ((0, 0), (1, 2))
    assert _hopcroft_karp(g, [1] * g.ny) == [0, 1]


def test_both_degree_tables_agree_when_y_is_regular():
    # equal Y degrees tie every least-contested pick, and a tie goes to the
    # first free neighbour, as on the flat table: circulants x -> x..x+d-1
    # mod n, with X and Y relabelled
    rng = random.Random(45)
    for d in range(1, 5):
        for n in range(d, 25):
            px, py = rng.sample(range(n), n), rng.sample(range(n), n)
            g = BipartiteGraph.from_edges(
                n, n, [(px[x], py[(x + i) % n]) for x in range(n) for i in range(d)])
            assert set(g.y_degrees()) == {d}
            assert _hopcroft_karp(g, g.y_degrees()) == _hopcroft_karp(g, [1] * g.ny)


def test_maximum_against_brute_force():
    rng = random.Random(5)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 4), rng.randint(1, 4), 0.6)
        if g.num_edges() > 12:
            continue
        assert len(max_matching(g)) == max(len(m) for m, _ in edge_subset_matchings(g))


def test_determinism_under_reserialization():
    rng = random.Random(6)
    for _ in range(50):
        g = random_graph(rng, 5, 5, 0.5)
        g2 = BipartiteGraph.from_edges(g.nx, g.ny, reversed(g.edges()))
        assert max_matching(g) == max_matching(g2)


def sparse_random_graphs(seed: int, count: int):
    """Seeded random graphs with up to 300 vertices per side and mixed density."""
    rng = random.Random(seed)
    for _ in range(count):
        nx, ny = rng.randint(0, 300), rng.randint(0, 300)
        degree = rng.choice((1, 2, 3, 5))
        edges = [(x, rng.randrange(ny)) for x in range(nx) for _ in range(degree)] if ny else []
        yield BipartiteGraph.from_edges(nx, ny, edges)


def test_a_counted_degree_table_gives_the_same_matching():
    # the exact route counts the Y degrees for Hall's condition and hands the
    # table on; max_matching counts the same table when given none
    for g in sparse_random_graphs(12, 60):
        assert max_matching(g, g.y_degrees()) == max_matching(g)


MATCHING_DIGEST = "b7660830e33942cd3d16c6a09bcf013f3b244bd67454c2bbaf50914113e61210"


def test_matching_digest_is_pinned():
    # a pin on the kernel's choices: both degree tables on sparse graphs, some
    # deficient, so that the last BFS runs to the end, and konig_color on
    # k = 3 factors, whose odd level runs the first-fit kernel on a padded graph
    digest = hashlib.sha256()
    deficient = 0
    for g in sparse_random_graphs(40, 120):
        for degree in ([1] * g.ny, g.y_degrees()):
            match_x = _hopcroft_karp(g, degree)
            digest.update(repr(match_x).encode())
        deficient += -1 in match_x
    rng = random.Random(40)
    colored = 0
    for _ in range(60):
        n = rng.choice((30, 60, 120))
        h, _ = feasible_flow(random_graph(rng, n, n, 8.5 / n), [3] * n, [3] * n)
        if h is not None:
            colored += 1
            digest.update(repr(konig_color(h, 3)).encode())
    assert deficient >= 20 and colored >= 20
    assert digest.hexdigest() == MATCHING_DIGEST


def test_max_matching_size_matches_networkx():
    nxb = pytest.importorskip("networkx.algorithms.bipartite")
    import networkx
    for g in sparse_random_graphs(9, 30):
        m = max_matching(g)
        assert m.covered_x <= frozenset(range(g.nx))
        edge_set = set(g.edges())
        assert all((x, y) in edge_set for x, y in m.edges)
        h = networkx.Graph()
        h.add_nodes_from(("x", x) for x in range(g.nx))
        h.add_nodes_from(("y", y) for y in range(g.ny))
        h.add_edges_from((("x", x), ("y", y)) for x, y in g.edges())
        oracle = nxb.hopcroft_karp_matching(h, top_nodes=[("x", x) for x in range(g.nx)])
        assert 2 * len(m) == len(oracle)


def test_max_matching_size_matches_scipy():
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    for g in sparse_random_graphs(10, 30):
        if g.nx == 0 or g.ny == 0:
            continue
        rows = [x for x, _ in g.edges()]
        cols = [y for _, y in g.edges()]
        biadj = sparse.csr_matrix(([1] * len(rows), (rows, cols)), shape=(g.nx, g.ny))
        oracle = csgraph.maximum_bipartite_matching(biadj, perm_type="column")
        assert len(max_matching(g)) == int((oracle != -1).sum())


def test_chain_of_100000_matched_without_recursion():
    n = 100_000
    m = max_matching(chain_graph(n))
    assert len(m) == n


def test_single_augmenting_path_through_100000_vertices():
    # xi:{yi, y(i+1)} for i < n-1 and x(n-1):{y0}: the greedy start matches
    # xi-yi, leaving one augmenting path of length 2n-1 for x(n-1)
    n = 100_000
    edges = [e for i in range(n - 1) for e in ((i, i), (i, i + 1))] + [(n - 1, 0)]
    g = BipartiteGraph.from_edges(n, n, edges)
    assert len(max_matching(g)) == n
