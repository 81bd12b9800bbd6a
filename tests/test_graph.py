import random

import pytest

from sdmatch import (
    BipartiteGraph,
    DmInstance,
    FormatError,
    Matching,
    SdmInstance,
    SPair,
    is_matching,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
    verify_spair,
)
from sdmatch.graph import random_graph
from conftest import k22, reference_is_matching, y_adj


def test_validate_empty_graph():
    g = BipartiteGraph.from_edges(1, 1, [])
    assert g.num_edges() == 0


def test_validate_dedupes():
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 0), (1, 1)])
    assert set(g.edges()) == {(0, 0), (1, 1)}


def test_validate_rejects_out_of_range():
    with pytest.raises(ValueError, match="y-index out of range"):
        BipartiteGraph.from_edges(1, 1, [(0, 5)])
    with pytest.raises(ValueError, match="x-index out of range"):
        BipartiteGraph.from_edges(1, 1, [(1, 0)])
    with pytest.raises(ValueError, match="negative"):
        BipartiteGraph.from_edges(-1, 1, [])


@pytest.mark.parametrize("s_set", [[0, 3], [-1], [1, 7, 0]])
def test_sdm_instance_rejects_s_out_of_range(s_set):
    g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="S member out of range"):
        SdmInstance.make(g, s_set)
    # in range, S is deduplicated and sorted
    assert SdmInstance.make(g, [2, 0, 2]).s_set == (0, 2)


@pytest.mark.parametrize("s_set, first", [([0, 3], 3), ([-1], -1), ([1, 7, 0], 7),
                                          ([5, 4, 3, -2, -1], -2), ([9, 3, 4, 0], 3)])
def test_s_out_of_range_names_its_first_member_in_sorted_order(s_set, first):
    g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match=f"^S member out of range: {first}$"):
        SdmInstance.make(g, s_set)


@pytest.mark.parametrize("nx, ny", [(2, 3), (3, 2), (1, 1)])
def test_dm_instance_requires_one_vertex_set(nx, ny):
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="g1 and g2 must share nx and ny"):
        DmInstance(g, BipartiteGraph.from_edges(nx, ny, []))
    assert DmInstance(g, BipartiteGraph.from_edges(2, 2, [])).g1 is g


def test_adjacency_sorted_and_symmetric():
    g = BipartiteGraph.from_edges(2, 3, [(0, 2), (0, 0), (1, 1), (0, 1), (0, 2)])
    assert g.adj == ((0, 1, 2), (1,))
    assert g.edges() == [(0, 0), (0, 1), (0, 2), (1, 1)]
    assert y_adj(g) == ((0,), (0, 1), (0,))


def test_y_degrees_are_the_lengths_of_the_y_rows():
    rng = random.Random(44)
    graphs = [BipartiteGraph.from_edges(nx, ny, []) for nx, ny in ((0, 0), (0, 3), (3, 0))]
    graphs += [random_graph(rng, rng.randint(1, 30), rng.randint(1, 30),
                            rng.choice((0.05, 0.2, 0.5))) for _ in range(60)]
    no_neighbour = 0
    for g in graphs:
        degrees = g.y_degrees()
        assert degrees == list(map(len, y_adj(g)))
        no_neighbour += degrees.count(0)
    assert no_neighbour >= 10


def test_is_matching_c8(c8_gadget):
    inst, gn = c8_gadget
    m1 = [gn.cycle_edge(1, j) for j in (1, 3, 5, 7)]
    assert is_matching(inst.graph, m1)


def test_is_matching_shared_endpoint():
    g = BipartiteGraph.from_edges(1, 2, [(0, 0), (0, 1)])
    assert not is_matching(g, [(0, 0), (0, 1)])


def test_is_matching_k22_perfect():
    g = k22()
    assert is_matching(g, [(0, 0), (1, 1)])


def test_is_matching_edge_not_in_graph():
    g = BipartiteGraph.from_edges(2, 2, [(0, 0)])
    assert not is_matching(g, [(1, 1)])


def test_is_matching_agrees_with_the_edge_set_reference():
    """Row lookups give the set-based answer, with endpoints from -2 to
    n + 1, so a negative x never reads a row from the end."""
    rng = random.Random(35)
    answers = {True: 0, False: 0}
    for _ in range(20000):
        nx, ny = rng.randint(0, 6), rng.randint(0, 6)
        g = random_graph(rng, nx, ny, rng.random())
        own = g.edges()
        edges = [rng.choice(own) if own and rng.random() < 0.7
                 else (rng.randint(-2, nx + 1), rng.randint(-2, ny + 1))
                 for _ in range(rng.randint(0, 4))]
        answer = reference_is_matching(g, edges)
        assert is_matching(g, edges) == answer, (g, edges)
        answers[answer] += 1
    assert min(answers.values()) > 4000, answers


def test_verify_refuses_x_zero_in_the_text():
    """The pair 0:1 is x = -1, which names no row. Read as the last row,
    it would pass as an edge, and M1 would be refused only for missing X 1."""
    g = BipartiteGraph.from_edges(2, 2, [(0, 1), (1, 0), (1, 1)])
    spair = parse_solution("RESULT yes\nM1 0:1 1:2\nM2\n")
    assert spair.m1.edges == ((-1, 0), (0, 1))
    assert verify_spair(SdmInstance.make(g, []), spair) == (
        False, "m1 is not a matching in the graph")


def test_matching_constructor_rejects_conflicts():
    with pytest.raises(ValueError):
        Matching.from_edges([(0, 0), (0, 1)])


def test_from_match_x_skips_unmatched_and_sorts_by_x():
    m = Matching.from_match_x([2, -1, 0, -1, 5])
    assert m.edges == ((0, 2), (2, 0), (4, 5))
    assert Matching.from_match_x([]).edges == ()
    assert Matching.from_match_x([-1, -1]).edges == ()
    # a saturated array is paired as it stands, any other one filtered
    assert Matching.from_match_x([3, 0, 2]).edges == ((0, 3), (1, 0), (2, 2))
    assert Matching.from_match_x([3, 0, 2, -1]) == Matching.from_match_x([3, 0, 2])
    assert Matching.from_match_x([-1, 3, 0, 2]).edges == ((1, 3), (2, 0), (3, 2))


def test_from_match_x_rejects_shared_y():
    with pytest.raises(ValueError) as want:
        Matching.from_edges([(0, 1), (2, 1)])
    # a clash beside an unmatched x, and one in a saturated array
    for match_x in ([1, -1, 1], [1, 0, 1]):
        with pytest.raises(ValueError) as got:
            Matching.from_match_x(match_x)
        assert str(got.value) == str(want.value)


def test_from_match_x_equals_from_edges_on_mate_arrays():
    rng = random.Random(31)
    clashes = 0
    for _ in range(1000):
        nx, ny = rng.randint(0, 12), rng.randint(1, 12)
        # mostly injective, sometimes with a Y vertex used twice
        ys = rng.sample(range(ny), min(nx, ny)) + [-1] * max(0, nx - ny)
        match_x = [y if rng.random() < 0.7 else -1 for y in ys]
        rng.shuffle(match_x)
        if nx > 1 and rng.random() < 0.2:
            match_x[rng.randrange(nx)] = rng.randrange(ny)
        want = [(x, y) for x, y in enumerate(match_x) if y != -1]
        try:
            expected = Matching.from_edges(want)
        except ValueError as exc:
            clashes += 1
            with pytest.raises(ValueError) as got:
                Matching.from_match_x(match_x)
            assert str(got.value) == str(exc)
            continue
        assert Matching.from_match_x(match_x) == expected
        if -1 not in match_x:
            assert Matching.from_match_x(match_x) == Matching.from_edges(enumerate(match_x))
    assert 50 < clashes < 500


def test_verify_spair_true_pair(c8_gadget):
    inst, gn = c8_gadget
    m1 = Matching.from_edges(gn.cycle_edge(1, j) for j in (1, 3, 5, 7))
    m2 = Matching.from_edges(gn.cycle_edge(1, j) for j in (2, 6))
    ok, why = verify_spair(inst, SPair(m1, m2))
    assert ok, why


def test_verify_spair_not_disjoint():
    g = BipartiteGraph.from_edges(1, 1, [(0, 0)])
    inst = SdmInstance.make(g, [0])
    m = Matching.from_edges([(0, 0)])
    ok, why = verify_spair(inst, SPair(m, m))
    assert not ok
    assert why == "not disjoint"


# G: x0 - y0, x0 - y1, x1 - y1; S = {x0}. Each bad pair breaks one condition
# and meets every other, so each check alone decides its case.
@pytest.mark.parametrize("m1, m2, why", [
    ([(0, 0), (1, 1)], [(0, 1)], "ok"),
    ([(0, 1), (1, 0)], [(0, 0)], "m1 is not a matching in the graph"),
    ([(0, 0), (1, 1)], [(0, 1), (1, 0)], "m2 is not a matching in the graph"),
    ([(0, 0), (1, 1)], [(0, 0)], "not disjoint"),
    ([(0, 0)], [(0, 1)], "m1 does not saturate X"),
    ([(0, 0), (1, 1)], [], "m2 does not saturate S"),
], ids=["ok", "m1-edge-not-in-graph", "m2-edge-not-in-graph", "shared-edge",
        "m1-misses-x", "m2-misses-s"])
def test_verify_spair_names_each_violation(m1, m2, why):
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (0, 1), (1, 1)])
    inst = SdmInstance.make(g, [0])
    pair = SPair(Matching.from_edges(m1), Matching.from_edges(m2))
    assert verify_spair(inst, pair) == (why == "ok", why)


def test_verify_spair_star():
    g = BipartiteGraph.from_edges(1, 2, [(0, 0), (0, 1)])
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
    a = BipartiteGraph.from_edges(2, 2, [(1, 1), (0, 0), (0, 0)])
    b = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
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
    assert set(inst.graph.edges()) == {(0, 1)}


def test_solution_round_trip():
    pair = SPair(Matching.from_edges([(0, 1), (1, 0)]), Matching.from_edges([(0, 0)]))
    assert parse_solution(serialize_solution(pair)) == pair
    assert parse_solution(serialize_solution(None)) is None


def test_solution_format_lines():
    pair = SPair(Matching.from_edges([(1, 0), (0, 1)]), Matching(()))
    text = serialize_solution(pair)
    assert text == "RESULT yes\nM1 1:2 2:1\nM2\n"


@pytest.mark.parametrize("text, message", [
    ("", "empty solution"),
    ("c only a comment\n", "empty solution"),
    ("RESULT no\nM1\n", "trailing content after RESULT no"),
    ("RESULT maybe\n", "line 1: expected RESULT line, got 'RESULT maybe'"),
    ("RESULT yes\nM1 1:1\n", "RESULT yes must be followed by exactly M1 and M2 lines"),
    ("RESULT yes\nM2 1:1\nM1\n", "line 2: expected M1 line, got 'M2 1:1'"),
    ("c x\nRESULT yes\nM1 1:1\nM2 2-2\n", "line 4: malformed pair '2-2'"),
    ("RESULT yes\nM1 1:1 2:1\nM2\n", "line 2: edges share an endpoint; not a matching"),
], ids=["empty", "comment-only", "trailing-after-no", "bad-result", "line-count",
        "wrong-label", "malformed-pair", "shared-endpoint"])
def test_parse_solution_error_messages(text, message):
    with pytest.raises(FormatError) as info:
        parse_solution(text)
    assert str(info.value) == message
