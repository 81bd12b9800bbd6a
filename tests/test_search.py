"""The incremental exact search against the rebuild-per-node reference."""

import io
import itertools
import random

import pytest

from sdmatch import (
    BipartiteGraph,
    BudgetExhausted,
    Method,
    SdmInstance,
    serialize_instance,
    serialize_solution,
    solve,
    verify_spair,
)
from sdmatch.cli import run
from sdmatch.reductions import CnfFormula, reduce_3sat_to_sdm
from conftest import random_graph, reference_solve


def three_variable_formulas():
    """Every set of 4-7 distinct clauses over 3 variables, each clause with
    all three variables. There are 8 such clauses and each rules out one
    assignment, so every one of these 162 sets is satisfiable."""
    clauses = list(itertools.product((1, -1), (2, -2), (3, -3)))
    for size in range(4, 8):
        for chosen in itertools.combinations(clauses, size):
            yield CnfFormula.make(3, chosen)


def random_instances(count, seed):
    """Seeded instances with |X| <= 9; a random bounded-S cap sends some of
    them down the ExactBacktrack label."""
    rng = random.Random(seed)
    for _ in range(count):
        nx = rng.randint(1, 9)
        g = random_graph(rng, nx, rng.randint(1, 10), rng.uniform(0.2, 0.8))
        s_set = rng.sample(range(nx), rng.randint(0, nx))
        yield SdmInstance.make(g, s_set), rng.randint(0, 4)


def outcome(instance, budget=None, bounded_cap=8):
    """"budget", or (method, spair)."""
    try:
        result = solve(instance, budget=budget, bounded_cap=bounded_cap)
    except BudgetExhausted:
        return "budget"
    return result.method, result.spair


def reference_outcome(instance, budget=None, bounded_cap=8):
    try:
        return reference_solve(instance, budget, bounded_cap)
    except BudgetExhausted:
        return "budget"


def kind(result):
    """"budget", or (method, whether there is an S-pair)."""
    return result if result == "budget" else (result[0], result[1] is not None)


def printed(result):
    return result if result == "budget" else (result[0], serialize_solution(result[1]))


def assert_matches_reference(instance, bounded_cap=8):
    """Same method and outcome kind (yes, no or budget) as the reference,
    unbudgeted and at budgets 1..20, except that BoundedS may answer where
    the reference ran out. Every "yes" verifies and a rerun prints the same
    bytes; which S-pair a "yes" prints may differ from the reference's."""
    expected = reference_outcome(instance, bounded_cap=bounded_cap)
    for budget in (None, *range(1, 21)):
        got = outcome(instance, budget, bounded_cap)
        want = reference_outcome(instance, budget, bounded_cap)
        if got != "budget" and got[1] is not None:
            assert verify_spair(instance, got[1])[0]
        if expected[0] is Method.BOUNDED_S and want == "budget":
            # the incremental search prunes where the reference only checks
            # leaves, so it may need fewer steps
            assert kind(got) in ("budget", kind(expected))
        else:
            assert kind(got) == kind(want)
    assert printed(outcome(instance, bounded_cap=bounded_cap)) == \
        printed(outcome(instance, bounded_cap=bounded_cap))


def test_formulas_match_reference():
    instances = [reduce_3sat_to_sdm(f)[0] for f in three_variable_formulas()]
    assert len(instances) == 162
    for instance in instances:
        assert solve(instance).method is Method.EXACT_BACKTRACK
        assert_matches_reference(instance)
        # the variable cycles force M1, so the printed pair is the reference's
        assert printed(outcome(instance)) == printed(reference_outcome(instance))


def test_random_instances_match_reference():
    methods = set()
    for instance, cap in random_instances(2000, seed=4):
        assert_matches_reference(instance, cap)
        methods.add(solve(instance, bounded_cap=cap).method)
    assert methods == set(Method)


def test_every_answer_verifies():
    answers = set()
    for instance, cap in random_instances(300, seed=5):
        spair = solve(instance, bounded_cap=cap).spair
        answers.add(spair is not None)
        if spair is not None:
            assert verify_spair(instance, spair)[0]
    assert answers == {True, False}


def disjoint_c4s(count):
    """count copies of K(2,2), S = the first X vertex of each."""
    edges = [(2 * c + a, 2 * c + b) for c in range(count) for a in (0, 1) for b in (0, 1)]
    graph = BipartiteGraph.from_edges(2 * count, 2 * count, edges)
    return SdmInstance.make(graph, range(0, 2 * count, 2))


def test_1200_disjoint_c4s_solve_without_recursion():
    instance = disjoint_c4s(1200)
    result = solve(instance)
    assert result.method is Method.EXACT_BACKTRACK
    assert verify_spair(instance, result.spair)[0]


def test_1200_disjoint_c4s_cli_exits_0(tmp_path):
    path = tmp_path / "c4s.sdm"
    path.write_text(serialize_instance(disjoint_c4s(1200)))
    out = io.StringIO()
    assert run(["solve", str(path)], stdout=out) == 0
    assert "c method ExactBacktrack" in out.getvalue()
    assert "RESULT yes" in out.getvalue()


def test_budget_counts_the_root_and_one_step_per_pick():
    instance = disjoint_c4s(3)
    with pytest.raises(BudgetExhausted):
        solve(instance, budget=3, bounded_cap=0)
    assert verify_spair(instance, solve(instance, budget=4, bounded_cap=0).spair)[0]
