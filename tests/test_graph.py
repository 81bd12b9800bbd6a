import random

import pytest

from sdmatch import (
    BipartiteGraph,
    FormatError,
    Matching,
    SdmInstance,
    SPair,
    is_matching,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    validate_graph,
    verify_spair,
)
from conftest import random_graph


def test_validate_empty_graph():
    g = validate_graph(1, 1, [])
    assert g.num_edges() == 0


def test_validate_dedupes():
    g = validate_graph(2, 2, [(0, 0), (0, 0), (1, 1)])
    assert g.edge_set == {(0, 0), (1, 1)}


def test_validate_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        validate_graph(1, 1, [(0, 5)])
    with pytest.raises(ValueError, match="negative"):
        validate_graph(-1, 1, [])


def test_adjacency_sorted_and_symmetric():
    g = validate_graph(2, 3, [(0, 2), (0, 0), (1, 1), (0, 1)])
    assert g.adj[0] == (0, 1, 2)
    for x in range(g.nx):
        for y in g.adj[x]:
            assert x in g.y_adj[y]
    for y in range(g.ny):
        for x in g.y_adj[y]:
            assert y in g.adj[x]


def test_is_matching_c8(c8_gadget):
    inst, gm = c8_gadget
    m1 = [gm.cycle_edge(1, j) for j in (1, 3, 5, 7)]
    assert is_matching(inst.graph, m1)


def test_is_matching_shared_endpoint():
    g = validate_graph(1, 2, [(0, 0), (0, 1)])
    assert not is_matching(g, [(0, 0), (0, 1)])


def test_is_matching_k22_perfect():
    g = validate_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert is_matching(g, [(0, 0), (1, 1)])


def test_is_matching_edge_not_in_graph():
    g = validate_graph(2, 2, [(0, 0)])
    assert not is_matching(g, [(1, 1)])


def test_matching_constructor_rejects_conflicts():
    with pytest.raises(ValueError):
        Matching.from_edges([(0, 0), (0, 1)])


def test_verify_spair_true_pair(c8_gadget):
    inst, gm = c8_gadget
    m1 = Matching.from_edges(gm.cycle_edge(1, j) for j in (1, 3, 5, 7))
    m2 = Matching.from_edges(gm.cycle_edge(1, j) for j in (2, 6))
    ok, why = verify_spair(inst, SPair(m1, m2))
    assert ok, why


def test_verify_spair_not_disjoint():
    g = validate_graph(1, 1, [(0, 0)])
    inst = SdmInstance.make(g, [0])
    m = Matching.from_edges([(0, 0)])
    ok, why = verify_spair(inst, SPair(m, m))
    assert not ok
    assert why == "not disjoint"


def test_verify_spair_star():
    g = validate_graph(1, 2, [(0, 0), (0, 1)])
    inst = SdmInstance.make(g, [0])
    pair = SPair(Matching.from_edges([(0, 0)]), Matching.from_edges([(0, 1)]))
    ok, _ = verify_spair(inst, pair)
    assert ok


def test_serialization_round_trip_random():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, rng.randint(0, 6), rng.randint(0, 6), 0.5)
        s_size = rng.randint(0, g.nx)
        inst = SdmInstance.make(g, rng.sample(range(g.nx), s_size))
        assert parse_instance(serialize_instance(inst)) == inst


def test_canonical_serialization():
    a = validate_graph(2, 2, [(1, 1), (0, 0), (0, 0)])
    b = validate_graph(2, 2, [(0, 0), (1, 1)])
    assert serialize_instance(SdmInstance(a, ())) == serialize_instance(SdmInstance(b, ()))


def test_parse_rejects_unknown_directive():
    with pytest.raises(FormatError, match="unknown directive"):
        parse_instance("p sdm 1 1 0\nq nonsense\n")


def test_parse_rejects_edge_count_mismatch():
    with pytest.raises(FormatError, match="mismatch"):
        parse_instance("p sdm 2 2 2\ne 1 1\n")


def test_parse_accepts_comments_and_s_line():
    inst = parse_instance("c hello\np sdm 2 2 1\ne 1 2\ns 2\n")
    assert inst.s_set == (1,)
    assert inst.graph.edge_set == {(0, 1)}


def test_solution_round_trip():
    pair = SPair(Matching.from_edges([(0, 1), (1, 0)]), Matching.from_edges([(0, 0)]))
    assert parse_solution(serialize_solution(pair)) == pair
    assert parse_solution(serialize_solution(None)) is None


def test_solution_format_lines():
    pair = SPair(Matching.from_edges([(1, 0), (0, 1)]), Matching(()))
    text = serialize_solution(pair)
    assert text == "RESULT yes\nM1 1:2 2:1\nM2\n"
