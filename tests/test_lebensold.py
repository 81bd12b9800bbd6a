import random

import pytest

from sdmatch import (
    BipartiteGraph,
    is_matching,
    lebensold_condition,
    x_saturating_certificate,
)
from conftest import lebensold_brute_force, random_graph


def k22():
    return BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def test_k1_equals_hall():
    rng = random.Random(21)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), 0.4)
        verdict = lebensold_condition(g, 1)
        cert = x_saturating_certificate(g)
        assert verdict.holds == (cert.saturating_matching is not None)
        assert verdict.holds == lebensold_brute_force(g, 1)


def test_c8_two_disjoint_matchings(c8_gadget):
    inst, _ = c8_gadget
    assert lebensold_condition(inst.graph, 2).holds
    matchings = lebensold_condition(inst.graph, 2).matchings
    assert matchings is not None
    assert not (matchings[0].edge_set & matchings[1].edge_set)


def test_k23_k3_holds():
    g = BipartiteGraph.from_edges(2, 3, [(x, y) for x in range(2) for y in range(3)])
    verdict = lebensold_condition(g, 3)
    assert verdict.holds
    # direct evaluation at S = X: sum_y min(3, 2) = 6 >= 3 * 2
    assert sum(min(3, 2) for _ in range(3)) >= 3 * 2


def test_k22_decomposition():
    matchings = lebensold_condition(k22(), 2).matchings
    assert matchings is not None
    classes = {matchings[0].edge_set, matchings[1].edge_set}
    assert classes == {frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})}


def test_single_edge_k2_absent():
    g = BipartiteGraph.from_edges(1, 1, [(0, 0)])
    verdict = lebensold_condition(g, 2)
    assert not verdict.holds
    assert verdict.matchings is None


def test_equivalence_random():
    rng = random.Random(22)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), 0.5)
        for k in (1, 2, 3):
            expected = lebensold_brute_force(g, k)
            verdict = lebensold_condition(g, k)
            assert verdict.holds == expected
            assert (verdict.matchings is not None) == expected
            assert_verdict_certified(g, k, verdict)


def test_violating_set_certified():
    g = BipartiteGraph.from_edges(2, 1, [(0, 0), (1, 0)])
    verdict = lebensold_condition(g, 1)
    assert not verdict.holds
    w = verdict.violating_set
    total = sum(min(1, len(set(g.y_adj[y]) & set(w))) for y in range(g.ny))
    assert total < len(w)


def test_monotonicity_in_k():
    rng = random.Random(23)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), 0.6)
        holds = [lebensold_condition(g, k).holds for k in (1, 2, 3)]
        assert holds == [lebensold_brute_force(g, k) for k in (1, 2, 3)]
        for lo, hi in ((0, 1), (1, 2)):
            if holds[hi]:
                assert holds[lo]


def deficit(graph, k, w):
    """k|W| - sum_y min(k, |N(y) & W|), counted from the X-side lists."""
    hits = [0] * graph.ny
    for x in set(w):
        for y in graph.adj[x]:
            hits[y] += 1
    return k * len(set(w)) - sum(min(k, h) for h in hits)


def assert_verdict_certified(g, k, verdict):
    """A "no" carries a nonempty W inside X with positive deficit; a "yes"
    yields k pairwise disjoint X-saturating matchings."""
    if verdict.holds:
        matchings = verdict.matchings
        assert len(matchings) == k
        seen = set()
        for m in matchings:
            assert is_matching(g, m.edges)
            assert m.covered_x == frozenset(range(g.nx))
            assert not (m.edge_set & seen)
            seen |= m.edge_set
    else:
        w = verdict.violating_set
        assert w and len(set(w)) == len(w)
        assert all(0 <= x < g.nx for x in w)
        assert deficit(g, k, w) > 0


def test_every_witness_has_positive_deficit():
    rng = random.Random(24)
    violated = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 7), rng.randint(1, 7), rng.random())
        for k in (1, 2, 3):
            verdict = lebensold_condition(g, k)
            violated += not verdict.holds
            assert_verdict_certified(g, k, verdict)
    assert violated > 100


def d_out_graph(rng, nx, ny, d):
    """Each X vertex gets d distinct random neighbours."""
    return BipartiteGraph.from_edges(nx, ny, [(x, y) for x in range(nx) for y in rng.sample(range(ny), d)])


def networkx_network(nx_mod, g, k):
    """Lebensold's network s -> x (k), x -> y (1), y -> t (k) in networkx."""
    net = nx_mod.DiGraph()
    for x in range(g.nx):
        net.add_edge("s", ("x", x), capacity=k)
    for x, y in g.edges():
        net.add_edge(("x", x), ("y", y), capacity=1)
    for y in range(g.ny):
        net.add_edge(("y", y), "t", capacity=k)
    return net


def flow_value_networkx(g, k):
    nx_mod = pytest.importorskip("networkx")
    return nx_mod.maximum_flow_value(networkx_network(nx_mod, g, k), "s", "t")


def test_witness_is_the_minimal_min_cut_of_networkx():
    """W is the set of X vertices reachable from s in the residual network of
    any maximum flow: the source side of the unique minimal minimum cut. So
    the residual network of networkx's own Edmonds-Karp flow must give it."""
    nx_mod = pytest.importorskip("networkx")
    from networkx.algorithms.flow import edmonds_karp

    rng = random.Random(26)
    violated = 0
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.randint(1, 9), rng.random())
        for k in (1, 2, 3, 4):
            residual = edmonds_karp(networkx_network(nx_mod, g, k), "s", "t")
            verdict = lebensold_condition(g, k)
            assert verdict.holds == (residual.graph["flow_value"] == k * g.nx)
            if verdict.holds:
                continue
            violated += 1
            seen, queue = {"s"}, ["s"]
            for u in queue:
                for v, arc in residual[u].items():
                    if arc["capacity"] - arc["flow"] > 0 and v not in seen:
                        seen.add(v)
                        queue.append(v)
            assert verdict.violating_set == tuple(x for x in range(g.nx) if ("x", x) in seen)
    assert 100 < violated < 1200  # both verdicts occur


def test_lebensold_above_old_subset_limit():
    rng = random.Random(25)
    outcomes = set()
    for nx in (21, 60, 150):
        for k in (2, 3, 4):
            # roomy: |Y| = 1.5|X|, degree 2k; tight: |Y| = |X|, degree k+1
            for ny, d in ((nx * 3 // 2, 2 * k), (nx, k + 1)):
                g = d_out_graph(rng, nx, ny, d)
                verdict = lebensold_condition(g, k)
                assert verdict.holds == (flow_value_networkx(g, k) == k * nx)
                assert_verdict_certified(g, k, verdict)
                outcomes.add(verdict.holds)
    assert outcomes == {True, False}


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        lebensold_condition(k22(), 0)
