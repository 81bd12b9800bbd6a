"""The incremental exact search against the rebuild-per-node reference."""

import io
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
    solve_exact,
    verify_spair,
)
from sdmatch.cli import run
from sdmatch.graph import random_graph
from sdmatch.reductions import reduce_3sat_to_sdm
from conftest import reference_search, reference_solve, three_variable_formulas


def random_instances(count, seed):
    """Seeded instances with |X| <= 9 and every size of S."""
    rng = random.Random(seed)
    for _ in range(count):
        nx = rng.randint(1, 9)
        g = random_graph(rng, nx, rng.randint(1, 10), rng.uniform(0.2, 0.8))
        s_set = rng.sample(range(nx), rng.randint(0, nx))
        yield SdmInstance.make(g, s_set)


def outcome(instance, budget=None):
    """"budget", or (method, spair)."""
    try:
        result = solve(instance, budget=budget)
    except BudgetExhausted:
        return "budget"
    return result.method, result.spair


def reference_outcome(instance, budget=None):
    try:
        return reference_solve(instance, budget)
    except BudgetExhausted:
        return "budget"


def search_outcome(instance, budget=None):
    """"budget", or whether `solve_exact` found an S-pair (which must verify)."""
    try:
        spair = solve_exact(instance, budget)
    except BudgetExhausted:
        return "budget"
    if spair is not None:
        assert verify_spair(instance, spair)[0]
    return spair is not None


def reference_search_outcome(instance, prune, budget=None):
    """"budget", or whether `reference_search` found an S-pair."""
    try:
        return reference_search(instance, prune, budget) is not None
    except BudgetExhausted:
        return "budget"


def kind(result):
    """"budget", or (method, whether there is an S-pair)."""
    return result if result == "budget" else (result[0], result[1] is not None)


def printed(result):
    return result if result == "budget" else (result[0], serialize_solution(result[1]))


def assert_matches_reference(instance, prunes=(False, True)):
    """`solve_exact` gives the same outcome (yes, no or budget) as the
    reference search under each prune setting, unbudgeted and at budgets
    1..20, except that it may answer where the reference without pruning ran
    out: it prunes where that reference only checks leaves, so it may need
    fewer steps. At every budget `solve` gives the method of the reference
    dispatch, with the reference's outcome on the polynomial route, which
    ignores the budget, and the search's outcome off it. Every "yes"
    verifies and a rerun prints the same bytes; which S-pair a "yes" prints
    may differ from the reference's. Returns the (prune, reference outcome)
    pairs seen."""
    expected = reference_outcome(instance)
    unbudgeted = {prune: reference_search_outcome(instance, prune) for prune in prunes}
    seen = set()
    for budget in (None, *range(1, 21)):
        got = search_outcome(instance, budget)
        for prune in prunes:
            want = reference_search_outcome(instance, prune, budget)
            seen.add((prune, want))
            if not prune and want == "budget":
                assert got in ("budget", unbudgeted[prune])
            else:
                assert got == want
        routed = outcome(instance, budget)
        if routed != "budget" and routed[1] is not None:
            assert verify_spair(instance, routed[1])[0]
        if expected[0] is Method.POLY_LARGE_S:
            # the polynomial route ignores the budget
            assert kind(routed) == kind(expected)
        else:
            assert kind(routed) == (got if got == "budget" else (expected[0], got))
    assert kind(outcome(instance)) == kind(expected)
    assert printed(outcome(instance)) == printed(outcome(instance))
    return seen


def test_formulas_match_reference():
    instances = [reduce_3sat_to_sdm(f) for f in three_variable_formulas()]
    assert len(instances) == 162
    for instance in instances:
        assert solve(instance).method is Method.EXACT_BACKTRACK
        # the leaf-only reference takes minutes on these 162; the pruned
        # one is the reference of the ExactBacktrack label
        assert_matches_reference(instance, prunes=(True,))
        # the variable cycles force M1, so the printed pair is the reference's
        assert printed(outcome(instance)) == printed(reference_outcome(instance))


def test_random_instances_match_reference():
    methods, seen = set(), set()
    for instance in random_instances(2000, seed=4):
        seen |= assert_matches_reference(instance)
        methods.add(solve(instance).method)
    # both reference paths answer yes, answer no and run out of budget
    assert seen == {(prune, want) for prune in (False, True) for want in (True, False, "budget")}
    # |X| <= 9 keeps |S| within the bounded-S cap
    assert methods == {Method.POLY_LARGE_S, Method.BOUNDED_S}


def test_every_answer_verifies():
    answers = set()
    for instance in random_instances(300, seed=5):
        spair = solve(instance).spair
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
        solve_exact(instance, budget=3)
    assert verify_spair(instance, solve_exact(instance, budget=4))[0]
