import random

import pytest

from sdmatch import BipartiteGraph, max_matching
from sdmatch.graph import random_graph
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


def test_max_matching_size_matches_networkx():
    nxb = pytest.importorskip("networkx.algorithms.bipartite")
    import networkx
    for g in sparse_random_graphs(9, 30):
        m = max_matching(g)
        assert m.covered_x <= frozenset(range(g.nx))
        edge_set = g.edge_set
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
