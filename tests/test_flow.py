import hashlib
import random

import pytest

from sdmatch import BipartiteGraph, SdmInstance, gf_factor, lebensold_condition, solve
from sdmatch.flow import feasible_flow
from sdmatch.graph import Matching, random_graph
from sdmatch.matching import _hopcroft_karp, max_matching
from conftest import factor_degrees_ok, k22, networkx_min_cut_x, networkx_network, y_adj


def brute_force_factor_exists(g, cap_x, cap_y):
    edges = g.edges()
    subsets = ([e for i, e in enumerate(edges) if mask >> i & 1] for mask in range(1 << len(edges)))
    return any(factor_degrees_ok(g, cap_x, cap_y, BipartiteGraph.from_edges(g.nx, g.ny, subset))
               for subset in subsets)


def test_k22_full_factor():
    g = k22()
    assert gf_factor(g, [2] * g.nx, [2] * g.ny) == g


def test_k22_flow_saturates_edge_arcs():
    # the degree network must route one unit through every edge arc
    g = k22()
    assert feasible_flow(g, [2, 2], [2, 2]) == (g, None)


def test_unit_bounds_match_saturating_matching():
    # with every cap 1 the degree network is the matching problem, so the
    # degree engine gives the matching of Hopcroft-Karp from the first-fit
    # start it shares, or the Hall violator W that networkx's residual
    # network gives: the minimal min cut's X side
    pytest.importorskip("networkx")
    rng = random.Random(3)
    graphs = [random_graph(rng, rng.randint(1, 3), rng.randint(1, 3), 0.5) for _ in range(200)]
    graphs += [BipartiteGraph.from_edges(0, 0, []), BipartiteGraph.from_edges(0, 3, []),
               BipartiteGraph.from_edges(3, 0, [])]
    graphs += [random_graph(rng, rng.randint(0, 12), rng.randint(0, 12), rng.random())
               for _ in range(400)]
    graphs += [random_graph(rng, n, n + rng.randint(-2, 2), 2.5 / n)
               for n in (40, 80, 160) for _ in range(20)]
    saturated = set()
    for g in graphs:
        factor = gf_factor(g, [1] * g.nx, [1] * g.ny)
        first_fit = Matching.from_match_x(_hopcroft_karp(g))
        assert len(max_matching(g)) == len(first_fit)
        assert (factor is not None) == (len(first_fit) == g.nx)
        violator = networkx_min_cut_x(g, [1] * g.nx, [1] * g.ny)
        matching = BipartiteGraph.from_edges(g.nx, g.ny, first_fit.edges)
        expected = (None, violator) if violator else (matching, None)
        assert feasible_flow(g, [1] * g.nx, [1] * g.ny) == expected
        empty = BipartiteGraph.from_edges(g.nx, g.ny, [])
        assert feasible_flow(g, [0] * g.nx, [0] * g.ny) == (empty, None)
        saturated.add(factor is not None)
    assert saturated == {True, False}


def test_spair_factor_bounds_single_edge_infeasible():
    g = BipartiteGraph.from_edges(1, 1, [(0, 0)])
    assert gf_factor(g, [2], [2]) is None


def test_factor_against_brute_force():
    rng = random.Random(4)
    seen = set()
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 3), rng.randint(1, 3), 0.5)
        cap_x = [rng.randint(0, 2) for _ in range(g.nx)]
        cap_y = [rng.randint(0, 2) for _ in range(g.ny)]
        factor = gf_factor(g, cap_x, cap_y)
        assert (factor is not None) == brute_force_factor_exists(g, cap_x, cap_y)
        if factor is not None:
            assert factor_degrees_ok(g, cap_x, cap_y, factor)
        seen.add(factor is not None)
    assert seen == {True, False}


def test_bounds_must_cover_every_vertex():
    g = k22()
    with pytest.raises(ValueError, match="cover every vertex"):
        gf_factor(g, [1], [1, 1])
    with pytest.raises(ValueError, match="cover every vertex"):
        gf_factor(g, [1, 1], [1, 1, 1])


@pytest.mark.parametrize("cap_x, cap_y", [
    ([-1, 1], [1, 1]),
    ([1, 1], [1, -1]),
    # x0 has degree 1 < 5, so the one-vertex cut would answer None first
    ([5, -1], [1, 1]),
    ([5, 1], [-1, 1]),
], ids=["negative-x", "negative-y", "negative-x-past-a-short-x", "negative-y-past-a-short-x"])
def test_negative_cap_rejected(flow_runs, cap_x, cap_y):
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
    with pytest.raises(ValueError, match="degree caps must be nonnegative"):
        gf_factor(g, cap_x, cap_y)
    assert flow_runs == []


def test_one_vertex_cut_refutes_without_a_flow(flow_runs):
    # degrees: x0 1, x1 2
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 0), (1, 1)])
    assert gf_factor(g, [2, 0], [2, 2]) is None
    assert gf_factor(g, [0, 3], [2, 2]) is None
    # the S-pair caps: x0 in S needs two neighbours
    assert solve(SdmInstance.make(g, [0, 1])).spair is None
    assert flow_runs == []


def test_degrees_that_meet_g_still_run_one_flow(flow_runs):
    # every X degree meets its cap and the caps on X sum to what Y can take,
    # yet no factor exists: x0 and x1 both need y0
    g = BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)])
    assert gf_factor(g, [1, 1, 1], [1, 1, 1]) is None
    assert len(flow_runs) == 1
    # x0 and x1 need two units each from y0 and y1, which take one each;
    # x2's three neighbours make up the count
    g = BipartiteGraph.from_edges(3, 5, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (2, 4)])
    assert gf_factor(g, [2, 2, 1], [1, 1, 2, 2, 2]) is None
    assert len(flow_runs) == 2
    # a cap equal to the degree is no refutation: the path y0 - x0 - y1 - x1 - y2
    g = BipartiteGraph.from_edges(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    assert gf_factor(g, [2, 2], [2, 2, 2]) == g
    assert len(flow_runs) == 3


def test_counting_cut_refutes_without_a_flow(flow_runs):
    # every X degree meets its cap, but the caps on X sum past
    # sum_y min(cap_y[y], deg y): Hoffman's condition on the cut W = X
    assert gf_factor(k22(), [2, 2], [1, 1]) is None
    # the path y0 - x0 - y1 - x1 - y2 with caps 0 at both ends
    path = BipartiteGraph.from_edges(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)])
    assert gf_factor(path, [1, 1], [0, 1, 0]) is None
    # K3,2 with S = X: six units of M1 | M2 against four that Y can take
    k32 = BipartiteGraph.from_edges(3, 2, [(x, y) for x in range(3) for y in range(2)])
    assert solve(SdmInstance.make(k32, [0, 1, 2])).spair is None
    assert flow_runs == []
    # lebensold_condition calls the flow itself, so its W is the flow's
    verdict = lebensold_condition(k32, 2)
    assert not verdict.holds and verdict.violating_set == (0, 1, 2)
    assert flow_runs == [k32]


def test_factor_verdict_matches_networkx_flow(flow_runs):
    networkx = pytest.importorskip("networkx")
    rng = random.Random(12)
    seen = set()
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 60), rng.randint(1, 60), rng.choice((0.05, 0.1, 0.2)))
        # X caps no higher than the degree, so both verdicts are common, then
        # in about a quarter of the graphs one cap past its degree
        cap_x = [rng.randint(0, min(2, len(g.adj[x]))) for x in range(g.nx)]
        if rng.random() < 0.25:
            x = rng.randrange(g.nx)
            cap_x[x] = len(g.adj[x]) + 1
        cap_y = [rng.randint(0, 3) for _ in range(g.ny)]
        flow_runs.clear()
        factor = gf_factor(g, cap_x, cap_y)
        flow = networkx.maximum_flow_value(networkx_network(g, cap_x, cap_y), "s", "t")
        assert (factor is not None) == (flow == sum(cap_x))
        if factor is not None:
            assert factor_degrees_ok(g, cap_x, cap_y, factor)
        # the flow is skipped exactly when one vertex's degree refutes or the
        # caps on X sum past what Y can take
        short = any(len(g.adj[x]) < cap_x[x] for x in range(g.nx))
        counted = sum(cap_x) > sum(min(c, len(xs)) for c, xs in zip(cap_y, y_adj(g)))
        cut = "one-vertex cut" if short else "counting cut" if counted else "flow"
        assert flow_runs == ([g] if cut == "flow" else [])
        seen.add((cut, factor is not None))
    assert seen == {("one-vertex cut", False), ("counting cut", False), ("flow", False),
                    ("flow", True)}


# sha256 over the repr of each (H, None) or (None, W) of the networks below,
# with H as the tuple of its edges: a pin on this engine's choices. Any valid
# factor would serve its callers, so the loop checks each factor's degrees and
# the first W results against networkx on their own, and a change to the
# engine that finds other valid factors re-pins the digest
FACTOR_DIGEST = "927e9ce5ab4dd09b6a3351d828be95c8770d6406744ded6e9370cd06aec72882"


def test_factor_digest_is_pinned():
    try:
        import networkx  # noqa: F401
        cuts_left = 40  # a sample: networkx on all 594 W results takes half a minute
    except ImportError:
        cuts_left = 0
    rng = random.Random(20)
    digest = hashlib.sha256()
    found = 0
    for _ in range(300):
        n = rng.choice((60, 120, 240))
        g = random_graph(rng, n, n, 8.5 / n)
        cap_x = [rng.randint(0, 4) for _ in range(g.nx)]
        cap_y = [rng.randint(0, 4) for _ in range(g.ny)]
        # random caps, the S-pair caps with S = X, then Lebensold's k = 3
        for caps in ((cap_x, cap_y), ([2] * n, [2] * n), ([3] * n, [3] * n)):
            h, w = feasible_flow(g, *caps)
            result = (None, w) if h is None else (tuple(h.edges()), None)
            digest.update(repr(result).encode())
            if h is not None:
                found += 1
                assert factor_degrees_ok(g, *caps, h)
            elif n == 60 and cuts_left:
                cuts_left -= 1
                assert w == networkx_min_cut_x(g, *caps)
    assert 0 < found < 900
    assert digest.hexdigest() == FACTOR_DIGEST
