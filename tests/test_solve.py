import importlib
import itertools
import random

import pytest

from sdmatch import (
    BipartiteGraph,
    BudgetExhausted,
    DmInstance,
    Method,
    SdmInstance,
    count_spairs_exact,
    solve,
    solve_exact,
    solve_poly_large_s,
    verify_spair,
)
from sdmatch.coloring import konig_color
from sdmatch.flow import gf_factor
from sdmatch.graph import random_graph
from sdmatch.matching import max_matching
from sdmatch.reductions import decode_spair_to_assignment, reduce_3sat_to_sdm
from sdmatch.solve import DEFAULT_BOUNDED_S_CAP, SolveOutcome
from conftest import (
    all_graphs_3x3,
    all_s_subsets,
    brute_force_satisfiable,
    brute_force_spair_count,
    chain_graph,
    dpll,
    random_3cnf,
    random_formula,
    k22,
    satisfies,
    solve_dm_exact,
    spair_milp,
)


def single_edge_instance(s_members=(0,)):
    g = BipartiteGraph.from_edges(1, 1, [(0, 0)])
    return SdmInstance.make(g, s_members)


def test_poly_single_edge_absent():
    assert solve_poly_large_s(single_edge_instance()) is None


def test_poly_star_deterministic():
    g = BipartiteGraph.from_edges(1, 2, [(0, 0), (0, 1)])
    inst = SdmInstance.make(g, [0])
    spair = solve_poly_large_s(inst)
    assert spair.m1.edges == ((0, 0),)
    assert spair.m2.edges == ((0, 1),)


def test_poly_c8_full_s(c8_gadget):
    inst, _ = c8_gadget
    full = SdmInstance.make(inst.graph, range(4))
    spair = solve_poly_large_s(full)
    assert spair is not None
    # the two perfect matchings of the cycle
    assert len(spair.m1) == 4 and len(spair.m2) == 4
    assert verify_spair(full, spair)[0]


def test_poly_tiny_x_matches_brute_force():
    # every graph with |X| <= 1 and |Y| <= 3, with S empty or S = X
    checked = 0
    for nx in (0, 1):
        for ny in range(4):
            for mask in range(1 << (nx * ny)):
                g = BipartiteGraph.from_edges(nx, ny, [(0, y) for y in range(ny) if mask >> y & 1])
                for s_set in ([], [0])[:nx + 1]:
                    inst = SdmInstance.make(g, s_set)
                    spair = solve_poly_large_s(inst)
                    assert (spair is not None) == (brute_force_spair_count(g, s_set) > 0)
                    if spair is not None:
                        assert verify_spair(inst, spair)[0]
                    checked += 1
    assert checked == 4 + 2 * (1 + 2 + 4 + 8)


def test_poly_anchor_edge_in_first_konig_class():
    # |S| = |X|-1: the split walks the path of the one X vertex outside S
    # first, so its edge lands in class 1 on every factor, and that class is M1
    rng = random.Random(41)
    found = 0
    for _ in range(300):
        nx = rng.randint(2, 7)
        g = random_graph(rng, nx, rng.randint(2, 8), rng.uniform(0.3, 0.8))
        anchor = rng.randrange(nx)
        inst = SdmInstance.make(g, [x for x in range(nx) if x != anchor])
        spair = solve_poly_large_s(inst)
        factor = gf_factor(g, [1 if x == anchor else 2 for x in range(nx)], [2] * g.ny)
        assert (spair is None) == (factor is None)
        if spair is None:
            continue
        found += 1
        assert verify_spair(inst, spair)[0]
        classes = konig_color(factor, 2)
        (y,) = factor.adj[anchor]
        assert (anchor, y) in classes[0].edge_set
        assert (spair.m1, spair.m2) == classes
    assert found >= 30


def test_poly_precondition():
    g = BipartiteGraph.from_edges(3, 3, [(x, y) for x in range(3) for y in range(3)])
    with pytest.raises(ValueError, match=r"\|S\| >= \|X\|-1"):
        solve_poly_large_s(SdmInstance.make(g, [0]))


def test_bounded_empty_s():
    g = k22()
    spair = solve_exact(SdmInstance.make(g, []))
    assert spair is not None
    assert spair.m2.edges == ()


def test_bounded_single_edge_absent():
    assert solve_exact(single_edge_instance()) is None


def test_bounded_hall_precheck_answers_before_any_step():
    g = BipartiteGraph.from_edges(12, 11, [(x, y) for x in range(12) for y in range(11)])
    inst = SdmInstance.make(g, range(8))
    assert solve_exact(inst, budget=0) is None
    assert solve(inst, budget=0).spair is None


@pytest.fixture
def matching_runs(monkeypatch):
    """The graph of every max_matching call of the exact route, in call order."""
    runs = []

    def recording(graph):
        runs.append(graph)
        return max_matching(graph)

    # sdmatch.solve the module, not the function sdmatch exports by that name
    monkeypatch.setattr(importlib.import_module("sdmatch.solve"), "max_matching", recording)
    return runs


def test_hall_count_refutes_before_hopcroft_karp(matching_runs):
    # x0 and x1 share y0, the only Y vertex with a neighbour: |N(X)| < |X|
    inst = SdmInstance.make(BipartiteGraph.from_edges(2, 3, [(0, 0), (1, 0)]), ())
    for budget in (0, None):
        assert solve_exact(inst, budget) is None
        assert solve(inst, budget).spair is None
    assert matching_runs == []


def test_hopcroft_karp_refutes_past_the_hall_count(matching_runs):
    # |N(X)| = |X| = 3, but x0 and x1 both need y0
    g = BipartiteGraph.from_edges(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)])
    inst = SdmInstance.make(g, [2])
    for budget in (0, None):
        assert solve_exact(inst, budget) is None
        assert len(matching_runs) == 1
        assert solve(inst, budget) == SolveOutcome(None, Method.BOUNDED_S)
        assert len(matching_runs) == 2
        matching_runs.clear()


def test_negative_budget_rejected_on_every_route():
    g = BipartiteGraph.from_edges(12, 12, [(x, y) for x in range(12) for y in range(12)])
    # S empty, BoundedS, ExactBacktrack and PolyLargeS
    for s_size in (0, 8, 9, 11):
        with pytest.raises(ValueError, match=r"^budget must be >= 0$"):
            solve(SdmInstance.make(g, range(s_size)), budget=-1)


def test_solve_exact_refuses_a_negative_budget():
    # a 3 x 2 graph the Hall count refutes, and a 6-cycle that reaches the search
    refuted = SdmInstance.make(BipartiteGraph.from_edges(3, 2, [(0, 0), (1, 1), (2, 0)]), ())
    cycle = SdmInstance.make(BipartiteGraph.from_edges(
        3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]), [0])
    for inst in (refuted, cycle):
        with pytest.raises(ValueError, match=r"^budget must be >= 0$"):
            solve_exact(inst, -1)
    # budget 0 admits the root step and nothing more
    with pytest.raises(BudgetExhausted, match=r"^step budget 0 exhausted$"):
        solve_exact(cycle, 0)


def test_bounded_budget_exhausted():
    g = BipartiteGraph.from_edges(12, 12, [(x, y) for x in range(12) for y in range(12)])
    inst = SdmInstance.make(g, range(8))
    with pytest.raises(BudgetExhausted):
        solve_exact(inst, budget=5)
    with pytest.raises(BudgetExhausted):
        solve(inst, budget=5)
    assert verify_spair(inst, solve_exact(inst))[0]


def test_exact_c8(c8_gadget):
    inst, _ = c8_gadget
    spair = solve_exact(inst)
    assert spair is not None
    assert verify_spair(inst, spair)[0]


def test_exact_budget_exhausted(c8_gadget):
    inst, _ = c8_gadget
    with pytest.raises(BudgetExhausted):
        solve_exact(inst, budget=1)


def test_count_c8(c8_gadget):
    inst, _ = c8_gadget
    assert count_spairs_exact(inst) == 2


def test_count_single_edge_empty_s():
    assert count_spairs_exact(single_edge_instance(())) == 1


def test_count_k22_full_s():
    g = k22()
    assert count_spairs_exact(SdmInstance.make(g, [0, 1])) == 2


def test_count_equals_brute_force_on_all_3x3_graphs():
    # an enumerator that skips or repeats a matching changes some count
    counts = set()
    for g in all_graphs_3x3():
        for s_set in all_s_subsets(3):
            count = count_spairs_exact(SdmInstance.make(g, s_set))
            assert count == brute_force_spair_count(g, s_set)
            counts.add(count)
    assert max(counts) > 2


def test_count_size_limit():
    g = random_graph(random.Random(1), 5, 5, 0.9)
    inst = SdmInstance.make(g, [])
    e = g.num_edges()
    assert count_spairs_exact(inst, size_limit=e) > 0  # exactly at the limit
    with pytest.raises(ValueError, match=f"instance too large: {e} edges > {e - 1}"):
        count_spairs_exact(inst, size_limit=e - 1)
    with pytest.raises(ValueError, match="limit must be >= 0"):
        count_spairs_exact(inst, size_limit=-1)


def test_dm_k22_present():
    g = k22()
    result = solve_dm_exact(DmInstance(g, g))
    assert result is not None
    m1, m2 = result
    assert not (m1.edge_set & m2.edge_set)


def test_dm_single_matching_absent():
    g = BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1)])
    assert solve_dm_exact(DmInstance(g, g)) is None


def test_chain_1200_enumerates_without_recursion():
    # a recursive enumerator of the matchings overflowed the Python stack:
    # the chain has one X-saturating matching, found 1200 picks deep
    g = chain_graph(1200)
    assert count_spairs_exact(SdmInstance.make(g, []), size_limit=5000) == 1
    # the test-side two-graph oracle walks the same enumerator
    assert solve_dm_exact(DmInstance(g, g), size_limit=5000) is None


def test_dispatch_rule():
    g = random_graph(random.Random(2), 10, 10, 0.5)
    assert solve(SdmInstance.make(g, range(10))).method is Method.POLY_LARGE_S
    assert solve(SdmInstance.make(g, range(2))).method is Method.BOUNDED_S
    # the label boundary: |S| <= DEFAULT_BOUNDED_S_CAP is BoundedS, and
    # |X| = cap + 4 keeps |S| = cap + 1 below |X|-1, off the polynomial route
    cap = DEFAULT_BOUNDED_S_CAP
    g2 = random_graph(random.Random(3), cap + 4, cap + 4, 0.5)
    assert solve(SdmInstance.make(g2, range(cap))).method is Method.BOUNDED_S
    assert solve(SdmInstance.make(g2, range(cap + 1))).method is Method.EXACT_BACKTRACK


def test_degenerate_empty_x():
    g = BipartiteGraph.from_edges(0, 3, [])
    outcome = solve(SdmInstance.make(g, []))
    assert outcome.spair is not None
    assert outcome.spair.m1.edges == () and outcome.spair.m2.edges == ()


def test_methods_agree_on_overlap():
    rng = random.Random(31)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 5), rng.randint(1, 5), 0.5)
        inst = SdmInstance.make(g, range(g.nx - 1))
        a = solve_poly_large_s(inst) is not None
        b = solve_exact(inst) is not None
        assert a == b


def test_oracle_agreement_random_sample():
    rng = random.Random(32)
    for _ in range(80):
        g = random_graph(rng, 3, 3, rng.random())
        s_set = sorted(rng.sample(range(3), rng.randint(0, 3)))
        inst = SdmInstance.make(g, s_set)
        present = solve(inst).spair is not None
        assert present == (count_spairs_exact(inst) > 0)
        assert present == (brute_force_spair_count(g, s_set) > 0)


def test_milp_oracle_equals_brute_force_on_all_3x3_graphs():
    # the MILP runs once per relabelling class (220 of the 4096 instances),
    # brute force on every instance
    labels = list(itertools.permutations(range(3)))
    milp = {}
    for g in all_graphs_3x3():
        for s_set in all_s_subsets(3):
            key = min((tuple(sorted((px[x], py[y]) for x, y in g.edges())),
                       tuple(sorted(px[x] for x in s_set))) for px in labels for py in labels)
            if key not in milp:
                milp[key] = spair_milp(SdmInstance.make(g, s_set))
            assert milp[key] == (brute_force_spair_count(g, s_set) > 0)
    assert len(milp) == 220


def test_solve_agrees_with_the_milp_oracle_past_brute_force():
    rng = random.Random(3)
    verdicts = {"yes": 0, "saturated no": 0, "out of budget": 0}
    for _ in range(150):
        nx = rng.randint(10, 40)
        ny = nx + rng.randint(0, 10)
        g = random_graph(rng, nx, ny, rng.uniform(2.5, 5) / ny)
        inst = SdmInstance.make(g, rng.sample(range(nx), rng.randint(0, nx)))
        try:
            spair = solve(inst, budget=20000).spair
        except BudgetExhausted:
            verdicts["out of budget"] += 1
            continue
        assert (spair is not None) == spair_milp(inst)
        if spair is not None:
            verdicts["yes"] += 1
            assert verify_spair(inst, spair)[0]
        else:
            # a "no" past the Hall pre-check, which the search or factor gave
            verdicts["saturated no"] += len(max_matching(g)) == nx
    assert verdicts["out of budget"] <= 15
    assert verdicts["yes"] >= 30 and verdicts["saturated no"] >= 15


def test_dpll_oracle_equals_brute_force_up_to_12_variables():
    rng = random.Random(12)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        formula = random_formula(rng, max_vars=12, max_clauses=24)
        values = dpll(formula)
        assert (values is not None) == (brute_force_satisfiable(formula) is not None)
        if values is not None:
            assert sorted(values) == list(range(1, formula.num_vars + 1))
            assert satisfies(formula, values)
        verdicts[values is not None] += 1
    # 108 satisfiable, 192 not
    assert min(verdicts.values()) >= 80


def test_solve_agrees_with_the_dpll_oracle_on_3sat_reductions():
    rng = random.Random(21)
    verdicts = {"yes": 0, "no": 0, "out of budget": 0}
    for _ in range(120):
        t = rng.randint(3, 5)
        formula = random_3cnf(rng, t, rng.randint(2 * t, 5 * t + 2))
        try:
            spair = solve(reduce_3sat_to_sdm(formula), budget=20000).spair
        except BudgetExhausted:
            verdicts["out of budget"] += 1
            continue
        assert (spair is not None) == (dpll(formula) is not None)
        if spair is not None:
            verdicts["yes"] += 1
            assert satisfies(formula, decode_spair_to_assignment(formula, spair))
        else:
            verdicts["no"] += 1
    # 93 yes, 14 no and 13 out of budget
    assert verdicts["out of budget"] <= 20
    assert verdicts["yes"] >= 80 and verdicts["no"] >= 10
