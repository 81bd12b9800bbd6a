import hashlib
import random
import re
import tracemalloc

import pytest

from sdmatch import (
    BipartiteGraph,
    CnfFormula,
    FormatError,
    Matching,
    SdmInstance,
    SPair,
    decode_spair_to_assignment,
    encode_assignment_to_spair,
    extend_spair_to_dm,
    is_matching,
    parse_dimacs_cnf,
    project_dm_to_spair,
    reduce_3sat_to_sdm,
    reduce_sdm_to_dm,
    solve_exact,
    true_false_pairs,
    verify_spair,
)
from sdmatch.graph import random_graph
from sdmatch.reductions import _check_dm_solution
from conftest import (
    C8_FORMULA,
    brute_force_satisfiable,
    chain_graph,
    numbering,
    random_formula,
    reference_decode,
    reference_reduce_3sat,
    satisfies,
    solve_dm_exact,
    three_variable_formulas,
    y_adj,
)


def test_parse_dimacs_basic():
    f = parse_dimacs_cnf("p cnf 1 1\n1 0\n")
    assert f.num_vars == 1
    assert f.clauses == ((1,),)


def test_parse_dimacs_two_units():
    f = parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0\n")
    assert f.clauses == ((1,), (-1,))


def test_parse_dimacs_out_of_range():
    with pytest.raises(FormatError, match="out of range"):
        parse_dimacs_cnf("p cnf 1 1\n2 0\n")


def test_parse_dimacs_missing_terminator():
    with pytest.raises(FormatError, match="terminator"):
        parse_dimacs_cnf("p cnf 1 1\n1\n")


@pytest.mark.parametrize("text, message", [
    # a second header used to replace the first, so the clause count was
    # checked against the last one and this formula reduced with exit 0
    ("p cnf 3 2\n1 0\np cnf 3 1\n", "line 3: duplicate header"),
    ("p cnf 1 1\nc x\np cnf 1 1\n1 0\n", "line 3: duplicate header"),
    # a negative variable count used to read as "no header yet"
    ("p cnf -1 1\n1 0\n", "line 1: negative header counts"),
    ("p cnf -1 0\n", "line 1: negative header counts"),
    ("p cnf 1 -1\n", "line 1: negative header counts"),
    # only a first token of exactly "p" starts a header
    ("pxyz cnf 1 1\n1 0\n", "line 1: malformed header 'pxyz cnf 1 1'"),
    ("p cnf a 1\n1 0\n", "line 1: non-integer header counts"),
    ("c x\n1 0\np cnf 1 1\n", "line 2: clause before header"),
    ("c no header\n", "missing p cnf header"),
], ids=["second-after-clause", "second-after-comment", "negative-vars",
        "negative-vars-no-clause", "negative-clauses", "p-prefixed-token",
        "non-integer-counts", "clause-before-header", "missing-header"])
def test_parse_dimacs_rejects_bad_header(text, message):
    with pytest.raises(FormatError) as info:
        parse_dimacs_cnf(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("p cnf 1 1\n1 x 0\n", "line 2: bad literal 'x'"),
    ("p cnf 1 2\n1 0\n", "clause count mismatch: header says 2, found 1"),
    # a lone 0 ends an empty clause, which CnfFormula.make refuses
    ("p cnf 1 1\n0\n", "empty clause"),
], ids=["bad-literal", "count-mismatch", "empty-clause"])
def test_parse_dimacs_rejects_bad_clauses(text, message):
    with pytest.raises(FormatError) as info:
        parse_dimacs_cnf(text)
    assert str(info.value) == message


def test_clause_arity_limit():
    with pytest.raises(ValueError, match="arity"):
        CnfFormula.make(4, [[1, 2, 3, 4]])


@pytest.mark.parametrize("num_vars, clauses, message", [
    (-1, [], "negative variable count: -1"),
    (2, [[1, 3]], "literal out of range: 3"),
    (2, [[1, 0]], "literal out of range: 0"),
], ids=["negative-vars", "past-num-vars", "zero-literal"])
def test_cnf_make_rejects(num_vars, clauses, message):
    with pytest.raises(ValueError) as info:
        CnfFormula.make(num_vars, clauses)
    assert str(info.value) == message


def test_repeated_literal_deduplicated():
    f = CnfFormula.make(1, [[1, 1, 1]])
    assert f.clauses == ((1,),)


def test_reduction_sizes_single_clause():
    f = CnfFormula.make(3, [[1, -2, 3]])
    inst = reduce_3sat_to_sdm(f)
    gn = numbering(f)
    g = inst.graph
    assert g.nx + g.ny == 14
    assert g.nx == 7
    assert len(inst.s_set) == 4
    # literal edges: positive -> position 1 of the cycle, negative -> position 3
    w = gn.clause_w(1)
    assert (w, gn.cycle_y(1, 1)) in set(g.edges())
    assert (w, gn.cycle_y(2, 3)) in set(g.edges())
    assert (w, gn.cycle_y(3, 1)) in set(g.edges())


def test_reduction_two_clauses_one_var():
    f = CnfFormula.make(1, [[1], [-1]])
    inst = reduce_3sat_to_sdm(f)
    gn = numbering(f)
    g = inst.graph
    assert gn.cycle_len() == 8
    assert (gn.clause_w(1), gn.cycle_y(1, 1)) in set(g.edges())
    assert (gn.clause_w(2), gn.cycle_y(1, 7)) in set(g.edges())
    # the contradiction is unsatisfiable, so no pair exists
    assert solve_exact(inst) is None


def test_no_clauses_rejected():
    f = CnfFormula.make(2, [])
    for call in (lambda: reduce_3sat_to_sdm(f),
                 lambda: decode_spair_to_assignment(f, SPair(Matching(()), Matching(()))),
                 lambda: encode_assignment_to_spair(f, {1: True, 2: True}),
                 lambda: true_false_pairs(f, 1)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "formula has no clauses (trivially satisfiable)"


def test_structural_audit():
    rng = random.Random(41)
    for _ in range(20):
        f = random_formula(rng)
        inst = reduce_3sat_to_sdm(f)
        gn = numbering(f)
        g = inst.graph
        for i in range(1, gn.t + 1):
            for j in range(2, gn.cycle_len() + 1, 2):
                x = gn.cycle_x(i, j)
                prev = gn.cycle_edge(i, j - 1)[1]
                nxt = gn.cycle_edge(i, j)[1]
                assert g.adj[x] == tuple(sorted({prev, nxt}))
        for k in range(1, gn.s + 1):
            assert y_adj(g)[gn.clause_z(k)] == (gn.clause_w(k),)


def test_figure_pairs_s2(c8_gadget):
    inst, gn = c8_gadget
    true_pair, false_pair = true_false_pairs(C8_FORMULA, 1)
    e = lambda j: gn.cycle_edge(1, j)
    assert true_pair.m1.edge_set == {e(1), e(3), e(5), e(7)}
    assert true_pair.m2.edge_set == {e(2), e(6)}
    assert false_pair.m1.edge_set == {e(2), e(4), e(6), e(8)}
    assert false_pair.m2.edge_set == {e(1), e(5)}
    for pair in (true_pair, false_pair):
        ok, why = verify_spair(inst, pair)
        assert ok, why
    for i in (0, gn.t + 1):
        with pytest.raises(ValueError, match=f"variable index out of range: {i}"):
            true_false_pairs(C8_FORMULA, i)


def test_decode_reads_cycle_value():
    f = CnfFormula.make(1, [[1]])
    inst = reduce_3sat_to_sdm(f)
    spair = solve_exact(inst)
    values = decode_spair_to_assignment(f, spair)
    assert values == {1: True}


def test_decode_rejects_a_cycle_with_neither_pair():
    f = CnfFormula.make(1, [[-1], [-1]])  # two clauses over one variable: the c8 layout
    true_pair, false_pair = true_false_pairs(f, 1)
    for mixed in (SPair(true_pair.m1, false_pair.m2), SPair(false_pair.m1, true_pair.m2)):
        with pytest.raises(ValueError, match="cycle 1 carries neither"):
            decode_spair_to_assignment(f, mixed)
    assert decode_spair_to_assignment(f, false_pair) == {1: False}


def test_decode_refuses_values_that_fail_a_clause():
    true_pair, _ = true_false_pairs(C8_FORMULA, 1)
    # the true pair alone is no S-pair of the reduction, and x1 fails clause 2
    with pytest.raises(ValueError, match="^decoded assignment does not satisfy clause 2$"):
        decode_spair_to_assignment(C8_FORMULA, true_pair)


def test_encode_clause_witness_rule():
    f = CnfFormula.make(3, [[1, -2, 3]])
    inst = reduce_3sat_to_sdm(f)
    gn = numbering(f)
    assignment = {1: True, 2: True, 3: True}
    spair = encode_assignment_to_spair(f, assignment)
    # lowest satisfying variable is 1 (true), so the witness edge sits at position 1
    assert (gn.clause_w(1), gn.cycle_y(1, 1)) in spair.m2.edge_set
    assert (gn.clause_w(1), gn.clause_z(1)) in spair.m1.edge_set
    assert verify_spair(inst, spair)[0]


def test_encode_rejects_unsatisfying_assignment():
    f = CnfFormula.make(1, [[1]])
    with pytest.raises(ValueError, match="clause 1"):
        encode_assignment_to_spair(f, {1: False})


def test_round_trip_random_formulas():
    rng = random.Random(42)
    for _ in range(60):
        f = random_formula(rng)
        sat = brute_force_satisfiable(f)
        inst = reduce_3sat_to_sdm(f)
        spair = solve_exact(inst)
        assert (spair is not None) == (sat is not None)
        if spair is not None:
            values = decode_spair_to_assignment(f, spair)
            assert satisfies(f, values)
            encoded = encode_assignment_to_spair(f, values)
            assert verify_spair(inst, encoded)[0]
            assert decode_spair_to_assignment(f, encoded) == values


def test_reduce_dm_edgeless():
    g = BipartiteGraph.from_edges(3, 3, [])
    dm = reduce_sdm_to_dm(SdmInstance.make(g, []))
    assert dm.g1.num_edges() == 0
    assert dm.g2.num_edges() == 9


def test_reduce_dm_keeps_s_rows():
    g = BipartiteGraph.from_edges(3, 3, [(0, 0)])
    dm = reduce_sdm_to_dm(SdmInstance.make(g, [0]))
    assert dm.g2.adj[0] == (0,)
    assert dm.g2.adj[1] == (0, 1, 2)
    assert dm.g2.adj[2] == (0, 1, 2)
    # G2 matches the edge-list construction: G's edges plus every (X-S) x Y edge
    rng = random.Random(45)
    seen = set()
    for _ in range(200):
        nx = rng.randint(2, 6)
        ny = rng.randint(0, 8)
        g = random_graph(rng, nx, ny, rng.uniform(0.1, 0.9))
        s_set = sorted(rng.sample(range(nx), rng.randint(0, nx - 2)))
        added = [(x, y) for x in range(nx) if x not in s_set for y in range(ny)]
        dm = reduce_sdm_to_dm(SdmInstance.make(g, s_set))
        assert dm.g1 == g
        assert dm.g2 == BipartiteGraph.from_edges(nx, ny, g.edges() + added)
        cases = (("no Y", ny == 0), ("empty S", not s_set), ("wide Y", ny > nx))
        seen.update(case for case, hit in cases if hit)
    assert seen == {"no Y", "empty S", "wide Y"}


def test_reduce_dm_precondition():
    g = BipartiteGraph.from_edges(2, 2, [(0, 0)])
    with pytest.raises(ValueError, match="polynomial"):
        reduce_sdm_to_dm(SdmInstance.make(g, [0]))


def test_project_drops_added_edges():
    rng = random.Random(43)
    checked = 0
    while checked < 40:
        g = random_graph(rng, rng.randint(2, 5), rng.randint(2, 5), 0.5)
        max_s = g.nx - 2
        s_set = sorted(rng.sample(range(g.nx), rng.randint(0, max_s)))
        inst = SdmInstance.make(g, s_set)
        dm = reduce_sdm_to_dm(inst)
        result = solve_dm_exact(dm)
        if result is None:
            continue
        checked += 1
        spair = project_dm_to_spair(inst, *result)
        assert verify_spair(inst, spair)[0]
        assert all(x in s_set for x, _ in spair.m2.edges)


def test_extend_builds_dm_solution():
    rng = random.Random(44)
    digest = hashlib.sha256()
    checked = 0
    while checked < 40:
        nx = rng.randint(2, 5)
        ny = rng.randint(nx, 6)
        g = random_graph(rng, nx, ny, 0.6)
        s_set = sorted(rng.sample(range(nx), rng.randint(0, nx - 2)))
        inst = SdmInstance.make(g, s_set)
        spair = solve_exact(inst)
        if spair is None:
            continue
        checked += 1
        m1, m2 = extend_spair_to_dm(inst, spair)
        digest.update(repr((m1.edges, m2.edges)).encode())
        dm = reduce_sdm_to_dm(inst)
        assert is_matching(dm.g1, m1.edges)
        assert is_matching(dm.g2, m2.edges)
        assert not (m1.edge_set & m2.edge_set)
        assert m1.covered_x == m2.covered_x == frozenset(range(nx))
        # round trip back: projection recovers the S-restricted part
        back = project_dm_to_spair(inst, m1, m2)
        assert back.m1 == spair.m1
        assert {e for e in back.m2.edges} == {e for e in spair.m2.edges if e[0] in s_set}
    # the pairs, byte for byte. They extend solve_exact's S-pairs, so a change
    # to the search's M2 re-pins this along with the other exact-route pins,
    # as does a change to the Y vertices the extension hands X-S
    assert digest.hexdigest() == \
        "50adf394b1bfa525fd33757ba6f1343531f7987bb6a5154da8ed41e1a91a91d7"


# The 8-cycle x_i - y_i - x_(i-1): edges (i, i) and (i, i+1 mod 4), S = {x0},
# M1 = {(i, i)}. An S-pair's M2 may hold edges outside S as well.
@pytest.mark.parametrize("m2", [
    [(0, 1)],
    [(0, 1), (1, 2)],
    [(0, 1), (1, 2), (2, 3), (3, 0)],
], ids=["m2-on-s", "m2-one-edge-past-s", "m2-every-edge-past-s"])
def test_extend_accepts_m2_edges_outside_s(m2):
    g = BipartiteGraph.from_edges(4, 4, [e for i in range(4) for e in ((i, i), (i, (i + 1) % 4))])
    inst = SdmInstance.make(g, [0])
    spair = SPair(Matching.from_edges((i, i) for i in range(4)), Matching.from_edges(m2))
    assert verify_spair(inst, spair) == (True, "ok")
    m1, m2_dm = extend_spair_to_dm(inst, spair)
    _check_dm_solution(reduce_sdm_to_dm(inst), m1, m2_dm)
    assert m1 == spair.m1 and (0, 1) in m2_dm.edge_set
    assert project_dm_to_spair(inst, m1, m2_dm) == SPair(spair.m1, Matching(((0, 1),)))


def test_extend_swaps_a_clash_with_the_next_vertex_cyclically():
    # K3,3 with S empty and M1 = {(i, i)}: the free Y vertices ascending
    # hand every X vertex its own mate, so x0 swaps with x1, then x2, the
    # last, swaps with x0
    g = BipartiteGraph.from_edges(3, 3, [(x, y) for x in range(3) for y in range(3)])
    inst = SdmInstance.make(g, [])
    m1 = Matching.from_edges((i, i) for i in range(3))
    _, m2 = extend_spair_to_dm(inst, SPair(m1, Matching(())))
    assert m2.edges == ((0, 2), (1, 0), (2, 1))
    _check_dm_solution(reduce_sdm_to_dm(inst), m1, m2)


def planted_spair(rng, nx):
    """A random graph on nx X vertices and up to nx + 5 Y vertices that
    holds a planted S-pair, with |S| <= nx - 2: M1 sends X into Y (in
    ascending order half the time, so that the free Y vertices often meet
    their M1 mates), M2 covers S and some vertices outside it and shares no
    edge with M1, and each other (x, y) is an edge with probability 0.1."""
    ny = rng.randint(nx, nx + 5)
    ys = rng.sample(range(ny), nx)
    if rng.random() < 0.5:
        ys.sort()
    m1 = list(enumerate(ys))
    s_set = rng.sample(range(nx), rng.randint(0, nx - 2))
    m2_x = s_set + rng.sample(sorted(set(range(nx)) - set(s_set)), rng.randint(0, 2))
    while True:
        m2 = list(zip(m2_x, rng.sample(range(ny), len(m2_x))))
        if not set(m2) & set(m1):
            break
    noise = [(x, y) for x in range(nx) for y in range(ny) if rng.random() < 0.1]
    g = BipartiteGraph.from_edges(nx, ny, m1 + m2 + noise)
    return (SdmInstance.make(g, s_set),
            SPair(Matching.from_edges(m1), Matching.from_edges(m2)))


def test_extend_and_project_round_trip_past_brute_force():
    rng = random.Random(35)
    for _ in range(300):
        inst, spair = planted_spair(rng, rng.randint(2, 40))
        assert verify_spair(inst, spair) == (True, "ok")
        m1, m2 = extend_spair_to_dm(inst, spair)
        _check_dm_solution(reduce_sdm_to_dm(inst), m1, m2)
        in_s = set(inst.s_set)
        on_s = Matching(tuple((x, y) for x, y in spair.m2.edges if x in in_s))
        assert m1 == spair.m1 and set(on_s.edges) <= set(m2.edges)
        assert project_dm_to_spair(inst, m1, m2) == SPair(spair.m1, on_s)


def test_chain_extension_and_projection_read_rows():
    """On the 1500-link chain with S = {last}, G2 has about 2.25 million
    edges. A set of them took the projection's check to 193 MB traced, and
    the extension's dense helper graph to 18.5 MB; both calls together now
    peak under 8 MB."""
    n = 1500
    inst = SdmInstance.make(chain_graph(n), [n - 1])
    spair = SPair(Matching.from_edges((i, i) for i in range(n)), Matching(((n - 1, n - 2),)))
    assert verify_spair(inst, spair) == (True, "ok")
    tracemalloc.start()
    try:
        m1, m2 = extend_spair_to_dm(inst, spair)
        back = project_dm_to_spair(inst, m1, m2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak
    _check_dm_solution(reduce_sdm_to_dm(inst), m1, m2)
    assert back == spair


# G1: x0 - y0, x0 - y1, x1 - y1, x2 - y2 with S = {x0}, so G2 adds every edge
# of x1 and x2. Each bad two-graph pair breaks one condition and meets every
# other, so each check alone decides its case.
@pytest.mark.parametrize("m1, m2, message", [
    ([(0, 1), (1, 0), (2, 2)], [(0, 0), (1, 2), (2, 1)], "m1 is not a matching of G1"),
    ([(0, 0), (1, 1), (2, 2)], [(0, 2), (1, 0), (2, 1)], "m2 is not a matching of G2"),
    ([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 0), (2, 2)], "matchings are not disjoint"),
    ([(0, 0), (1, 1)], [(0, 1), (1, 0), (2, 2)], "matchings must both saturate X"),
    ([(0, 0), (1, 1), (2, 2)], [(0, 1), (1, 0)], "matchings must both saturate X"),
], ids=["m1-not-in-g1", "m2-not-in-g2", "shared-edge", "m1-misses-x", "m2-misses-x"])
def test_project_rejects_bad_dm_pairs(m1, m2, message):
    g = BipartiteGraph.from_edges(3, 3, [(0, 0), (0, 1), (1, 1), (2, 2)])
    inst = SdmInstance.make(g, [0])
    with pytest.raises(ValueError) as info:
        project_dm_to_spair(inst, Matching.from_edges(m1), Matching.from_edges(m2))
    assert str(info.value) == message


def test_extend_rejects_large_s():
    g = BipartiteGraph.from_edges(3, 3, [(x, y) for x in range(3) for y in range(3)])
    spair = solve_exact(SdmInstance.make(g, [0, 1]))
    assert spair is not None
    with pytest.raises(ValueError, match=r"^extension requires \|S\| < \|X\|-1$"):
        extend_spair_to_dm(SdmInstance.make(g, [0, 1]), spair)


def test_extend_rejects_narrow_y():
    # with |Y| < |X| no M1 saturates X, so no S-pair exists to extend
    g = BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 1), (2, 0)])
    inst = SdmInstance.make(g, [])
    assert solve_exact(inst) is None
    best = SPair(Matching.from_edges([(0, 0), (1, 1)]), Matching(()))
    with pytest.raises(ValueError) as info:
        extend_spair_to_dm(inst, best)
    assert str(info.value) == "invalid S-pair: m1 does not saturate X"


def test_encode_names_a_variable_the_assignment_lacks():
    f = CnfFormula.make(2, [[1, 2]])
    with pytest.raises(ValueError) as info:
        encode_assignment_to_spair(f, {1: True})
    assert str(info.value) == "assignment has no value for variable 2"


def raw_formula(rng, t, s):
    """s random clauses of 1-3 literals over t variables, built without
    CnfFormula.make, so a clause may repeat a literal or hold a variable with
    both signs; with t = 0 every clause is empty."""
    lits = [lit for i in range(1, t + 1) for lit in (i, -i)]
    return CnfFormula(t, tuple(tuple(rng.choice(lits) for _ in range(rng.randint(1, 3)))
                               if lits else () for _ in range(s)))


def layout_formulas():
    """Random formulas for every t <= 4 and s <= 6, then the 162 sat-search
    clause sets as they are and in the workload's form: padded to 7 clauses,
    clauses and literals in a seeded order."""
    rng = random.Random(30)
    for t in range(5):
        for s in range(1, 7):
            for _ in range(5):
                yield raw_formula(rng, t, s)
    for f in three_variable_formulas():
        yield f
        clauses = list(f.clauses) + [rng.choice(f.clauses) for _ in range(7 - len(f.clauses))]
        rng.shuffle(clauses)
        yield CnfFormula.make(3, [rng.sample(c, 3) for c in clauses])


def test_closed_form_layout_equals_the_paper_numbering():
    for f in layout_formulas():
        gn = numbering(f)
        inst = reduce_3sat_to_sdm(f)
        assert type(inst) is SdmInstance and inst == reference_reduce_3sat(f)
        for i in range(1, gn.t + 1):
            assert true_false_pairs(f, i) == tuple(
                SPair(Matching.from_edges(m1), Matching.from_edges(m2))
                for m1, m2 in gn.true_false_edges(i))
        values = brute_force_satisfiable(f)
        if values is not None:
            spair = encode_assignment_to_spair(f, values)
            assert verify_spair(inst, spair)[0]
            assert decode_spair_to_assignment(f, spair) == values


def decoded(decoder, formula, spair):
    """The decoder's values, or the text of its ValueError."""
    try:
        return decoder(formula, spair)
    except ValueError as exc:
        return str(exc)


def mutants(rng, formula, spair):
    """The pair with, on each cycle in turn, one M1 or one M2 edge moved to
    another Y vertex of the cycle (the other pair's edge at that X, or any);
    with each cycle's pair swapped for the other value's; and with each clause
    witness dropped from M2."""
    gn = numbering(formula)
    c = 2 * gn.s
    m1, m2 = set(spair.m1.edges), set(spair.m2.edges)
    for i in range(1, gn.t + 1):
        b = (i - 1) * c
        for side, other in ((m1, m2), (m2, m1)):
            on_cycle = sorted((x, y) for x, y in side if b <= x < b + c)
            x, y = rng.choice(on_cycle)
            cycle_neighbour = b + (x - b + 1) % c if y == x else x
            for new_y in {cycle_neighbour, rng.randrange(b, b + c)} - {y}:
                moved = side - {(x, y)} | {(x, new_y)}
                yield (moved, other) if side is m1 else (other, moved)
        (true_m1, true_m2), (false_m1, false_m2) = gn.true_false_edges(i)
        if set(true_m1) <= m1:
            yield m1 - set(true_m1) | set(false_m1), m2 - set(true_m2) | set(false_m2)
        else:
            yield m1 - set(false_m1) | set(true_m1), m2 - set(false_m2) | set(true_m2)
    for k in range(1, gn.s + 1):
        yield m1, {(x, y) for x, y in m2 if x != gn.clause_w(k)}


def test_decode_matches_the_reference_on_mutated_pairs():
    rng = random.Random(31)
    kinds = set()
    for f in layout_formulas():
        values = brute_force_satisfiable(f)
        if values is None:
            continue
        spair = encode_assignment_to_spair(f, values)
        for m1, m2 in mutants(rng, f, spair):
            # unchecked, since a moved edge may share an endpoint
            mutant = SPair(Matching(tuple(sorted(m1))), Matching(tuple(sorted(m2))))
            got = decoded(decode_spair_to_assignment, f, mutant)
            assert got == decoded(reference_decode, f, mutant)
            kinds.add(re.sub(r"\d+", "#", got) if isinstance(got, str) else "values")
    # the mutants reach both refusals and accepted values
    assert kinds == {"values", "cycle # carries neither the true nor the false pair",
                     "decoded assignment does not satisfy clause #"}
