import random

import pytest

from sdmatch import (
    BipartiteGraph,
    is_matching,
    lebensold_condition,
    max_matching,
)
from sdmatch.flow import feasible_flow
from sdmatch.graph import random_graph
from conftest import (
    factor_degrees_ok,
    k22,
    lebensold_brute_force,
    networkx_min_cut_x,
    networkx_network,
    y_adj,
)


def test_k1_equals_hall():
    rng = random.Random(21)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 5), rng.randint(1, 5), 0.4)
        verdict = lebensold_condition(g, 1)
        assert verdict.holds == (len(max_matching(g)) == g.nx)
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
    total = sum(min(1, len(set(xs) & set(w))) for xs in y_adj(g))
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


def test_violator_deficiency_equals_matching_deficiency():
    # at k = 1 the cut's value |X| - |W| + |N(W)| is nu(G), so W is short by
    # |X| - nu(G) neighbours, not just one
    rng = random.Random(15)
    pair = BipartiteGraph.from_edges(2, 1, [(0, 0), (1, 0)])  # x0, x1 -> {y0}
    graphs = [pair, k22()]
    graphs += [random_graph(rng, rng.randint(1, 9), rng.randint(1, 7), rng.uniform(0.1, 0.5))
               for _ in range(300)]
    deficiencies = set()
    for g in graphs:
        verdict = lebensold_condition(g, 1)
        assert_verdict_certified(g, 1, verdict)
        deficiency = g.nx - len(max_matching(g))
        if verdict.holds:
            assert deficiency == 0
            assert verdict.violating_set is None
            assert verdict.matchings == (max_matching(g),)
            continue
        assert verdict.matchings is None
        w = verdict.violating_set
        neigh = {y for x in w for y in g.adj[x]}
        assert len(w) - len(neigh) == deficiency
        deficiencies.add(deficiency)
    assert lebensold_condition(pair, 1).violating_set == (0, 1)
    assert [len(m) for m in lebensold_condition(k22(), 1).matchings] == [2]
    assert max(deficiencies) >= 3


def d_out_graph(rng, nx, ny, d):
    """Each X vertex gets d distinct random neighbours."""
    return BipartiteGraph.from_edges(nx, ny, [(x, y) for x in range(nx) for y in rng.sample(range(ny), d)])


def test_witness_is_the_minimal_min_cut_of_networkx():
    """W is the set of X vertices reachable from s in the residual network of
    any maximum flow: the source side of the unique minimal minimum cut. So
    the residual network of networkx's own Edmonds-Karp flow must give it,
    for Lebensold's uniform caps and for random per-vertex caps alike."""
    pytest.importorskip("networkx")
    rng = random.Random(26)
    # the caps draw from a stream of their own, so the graphs stay the same
    caps_rng = random.Random(27)
    violated = 0
    cap_verdicts = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.randint(1, 9), rng.random())
        cases = []
        for k in (1, 2, 3, 4):
            verdict = lebensold_condition(g, k)
            violated += not verdict.holds
            cases.append(([k] * g.nx, [k] * g.ny, verdict.holds, verdict.violating_set))
        cap_x = [caps_rng.randint(0, 3) for _ in range(g.nx)]
        cap_y = [caps_rng.randint(0, 3) for _ in range(g.ny)]
        factor, w = feasible_flow(g, cap_x, cap_y)
        if factor is not None:
            assert factor_degrees_ok(g, cap_x, cap_y, factor)
        cap_verdicts.add(factor is not None)
        cases.append((cap_x, cap_y, factor is not None, w))
        for cap_x, cap_y, holds, w in cases:
            cut = networkx_min_cut_x(g, cap_x, cap_y)
            assert holds == (cut == ())
            assert w == (cut or None)
    assert 100 < violated < 1200  # both verdicts occur
    assert cap_verdicts == {True, False}


def test_lebensold_above_old_subset_limit():
    networkx = pytest.importorskip("networkx")
    rng = random.Random(25)
    outcomes = set()
    for nx in (21, 60, 150):
        for k in (2, 3, 4):
            # roomy: |Y| = 1.5|X|, degree 2k; tight: |Y| = |X|, degree k+1
            for ny, d in ((nx * 3 // 2, 2 * k), (nx, k + 1)):
                g = d_out_graph(rng, nx, ny, d)
                verdict = lebensold_condition(g, k)
                flow = networkx.maximum_flow_value(networkx_network(g, [k] * nx, [k] * ny), "s", "t")
                assert verdict.holds == (flow == k * nx)
                assert_verdict_certified(g, k, verdict)
                outcomes.add(verdict.holds)
    assert outcomes == {True, False}


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        lebensold_condition(k22(), 0)
