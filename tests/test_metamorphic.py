"""Four metamorphic relations of the S-pair problem, as hypothesis properties
over `solve`. They need no oracle, so they reach sizes past brute force:
|X| from 4 to 40, |Y| from |X| to |X| + 10, mean X degree 2.5 to 5, and a
random S of any size, so every route runs.

- relabelling X and Y keeps the verdict;
- adding an edge keeps a "yes";
- dropping an S vertex keeps a "yes";
- the disjoint union with a copy has the same verdict.

Each `solve` has a 20 000-step budget. An instance whose search runs out is
skipped and counted, and each test bounds its skips. Every "yes" must pass
`verify_spair`.

Three of them hold for `lebensold_condition` as well, for k from 1 to 4 on
the same instances with a mean X degree from k to 2k + 2 (S unused); a
"no" carries W, the X side of the minimal minimum cut, which is unique:

- relabelling keeps the verdict, and W maps along with the labels;
- adding an edge keeps "holds";
- the union with a copy has the same verdict, and its W is W plus W
  shifted by |X|.

Every "holds" must carry k disjoint X-saturating matchings. The examples
are derandomized, so every run tries the same instances."""

import random
from collections import Counter

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sdmatch import (BipartiteGraph, LebensoldVerdict, SdmInstance, is_matching,  # noqa: E402
                     lebensold_condition, solve, verify_spair)
from sdmatch.solve import BudgetExhausted  # noqa: E402

BUDGET = 20_000
EXAMPLES = 150  # each test skips at most 15 of them (10 at most today)
SETTINGS = settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)


class Skipped(Exception):
    """A search ran out of its budget, so the relation says nothing."""


def verdict(instance: SdmInstance) -> bool:
    """Whether `solve` finds an S-pair; a "yes" must check."""
    try:
        spair = solve(instance, BUDGET).spair
    except BudgetExhausted as exc:
        raise Skipped from exc
    if spair is not None:
        assert verify_spair(instance, spair) == (True, "ok")
    return spair is not None


@st.composite
def instances(draw, salt: str, min_s: int, degree=(2.5, 5)):
    """A random instance with at least min_s S vertices and a mean X degree
    drawn from the degree range, and the generator that drew it, for the
    relation's own choices. Derandomized examples depend only on the
    property's source, which the tests share, so each salts its generator
    with its own name."""
    rng = random.Random(f"{salt} {draw(st.integers(0, 2**32 - 1))}")
    nx = draw(st.integers(4, 40))
    ny = nx + rng.randint(0, 10)
    density = rng.uniform(*degree) / ny
    rows = tuple(tuple(y for y in range(ny) if rng.random() < density) for _ in range(nx))
    s_set = rng.sample(range(nx), rng.randint(min_s, nx))
    return SdmInstance.make(BipartiteGraph(nx, ny, rows), s_set), rng


def relabelled(instance: SdmInstance, rng: random.Random) -> tuple[SdmInstance, list[int]]:
    """The instance with X and Y permuted at random, and the X permutation:
    X vertex x becomes px[x]."""
    g = instance.graph
    px, py = rng.sample(range(g.nx), g.nx), rng.sample(range(g.ny), g.ny)
    rows = [()] * g.nx
    for x, row in enumerate(g.adj):
        rows[px[x]] = tuple(sorted(py[y] for y in row))
    s_set = [px[x] for x in instance.s_set]
    return SdmInstance.make(BipartiteGraph(g.nx, g.ny, tuple(rows)), s_set), px


def with_an_edge(instance: SdmInstance, rng: random.Random) -> SdmInstance:
    g = instance.graph
    missing = [(x, y) for x in range(g.nx) for y in range(g.ny) if y not in g.adj[x]]
    if not missing:
        return instance
    x, y = rng.choice(missing)
    rows = list(g.adj)
    rows[x] = tuple(sorted(rows[x] + (y,)))
    return SdmInstance.make(BipartiteGraph(g.nx, g.ny, tuple(rows)), instance.s_set)


def without_an_s_vertex(instance: SdmInstance, rng: random.Random) -> SdmInstance:
    s_set = list(instance.s_set)
    s_set.remove(rng.choice(s_set))
    return SdmInstance.make(instance.graph, s_set)


def doubled(instance: SdmInstance) -> SdmInstance:
    g = instance.graph
    rows = g.adj + tuple(tuple(y + g.ny for y in row) for row in g.adj)
    s_set = instance.s_set + tuple(x + g.nx for x in instance.s_set)
    return SdmInstance.make(BipartiteGraph(2 * g.nx, 2 * g.ny, rows), s_set)


def run_property(name, relation, only_yes, max_skipped, min_checked, min_s=0):
    """Check that relation(instance, rng), the verdict on the changed
    instance, equals the instance's own verdict over the examples, where
    only_yes keeps only instances whose verdict is "yes"; then bound the
    skips and require enough checked instances."""
    tally = {"checked": 0, "skipped": 0, "yes": 0}

    @SETTINGS
    @given(drawn=instances(name, min_s))
    def prop(drawn):
        instance, rng = drawn
        try:
            before = verdict(instance)
            if only_yes and not before:
                return
            after = relation(instance, rng)
        except Skipped:
            tally["skipped"] += 1
            return
        assert after == before, instance
        tally["checked"] += 1
        tally["yes"] += before

    prop()
    assert tally["skipped"] <= max_skipped, tally
    assert tally["checked"] >= min_checked, tally
    return tally


def test_relabelling_x_and_y_keeps_the_verdict():
    tally = run_property("relabel", lambda inst, rng: verdict(relabelled(inst, rng)[0]),
                         only_yes=False, max_skipped=15, min_checked=130)
    assert 20 <= tally["yes"] <= tally["checked"] - 20, tally


def test_adding_an_edge_keeps_a_yes():
    run_property("edge", lambda inst, rng: verdict(with_an_edge(inst, rng)),
                 only_yes=True, max_skipped=15, min_checked=60)


def test_dropping_an_s_vertex_keeps_a_yes():
    run_property("drop-s", lambda inst, rng: verdict(without_an_s_vertex(inst, rng)),
                 only_yes=True, max_skipped=15, min_checked=60, min_s=1)


def test_the_union_with_a_copy_keeps_the_verdict():
    tally = run_property("union", lambda inst, rng: verdict(doubled(inst)),
                         only_yes=False, max_skipped=15, min_checked=130)
    assert 20 <= tally["yes"] <= tally["checked"] - 20, tally


def lebensold_verdict(graph: BipartiteGraph, k: int) -> LebensoldVerdict:
    """`lebensold_condition`, whose "holds" must carry k disjoint
    X-saturating matchings of the graph."""
    result = lebensold_condition(graph, k)
    if result.holds:
        assert len(result.matchings) == k
        assert len(set().union(*(m.edges for m in result.matchings))) == k * graph.nx
        for m in result.matchings:
            assert is_matching(graph, m.edges) and len(m) == graph.nx
    return result


def run_lebensold_property(name, relation, only_holds=False):
    """Call relation(instance, k, verdict, rng) over the examples, for k from
    1 to 4 and a mean X degree from k to 2k + 2, where only_holds keeps
    only graphs whose condition holds; return the (k, holds) pairs checked,
    each with its count."""
    tally = Counter()

    @SETTINGS
    @given(k_drawn=st.integers(1, 4).flatmap(
        lambda k: st.tuples(st.just(k), instances(name, 0, (k, 2 * k + 2)))))
    def prop(k_drawn):
        k, (instance, rng) = k_drawn
        before = lebensold_verdict(instance.graph, k)
        if only_holds and not before.holds:
            return
        relation(instance, k, before, rng)
        tally[k, before.holds] += 1

    prop()
    return tally


# each test checks every k, and each k both ways unless only "holds" counts
BOTH_WAYS = {(k, holds) for k in range(1, 5) for holds in (False, True)}


def test_relabelling_keeps_lebensolds_verdict_and_maps_w():
    def relation(instance, k, before, rng):
        after_instance, px = relabelled(instance, rng)
        after = lebensold_verdict(after_instance.graph, k)
        assert after.holds == before.holds
        if not before.holds:
            assert after.violating_set == tuple(sorted(px[x] for x in before.violating_set))

    assert set(run_lebensold_property("lebensold-relabel", relation)) == BOTH_WAYS


def test_adding_an_edge_keeps_lebensold_holding():
    def relation(instance, k, before, rng):
        assert lebensold_verdict(with_an_edge(instance, rng).graph, k).holds

    tally = run_lebensold_property("lebensold-edge", relation, only_holds=True)
    assert set(tally) == {(k, True) for k in range(1, 5)} and sum(tally.values()) >= 60, tally


def test_the_union_with_a_copy_keeps_lebensolds_verdict_and_doubles_w():
    def relation(instance, k, before, rng):
        after = lebensold_verdict(doubled(instance).graph, k)
        assert after.holds == before.holds
        if not before.holds:
            w, nx = before.violating_set, instance.graph.nx
            assert after.violating_set == w + tuple(x + nx for x in w)

    assert set(run_lebensold_property("lebensold-union", relation)) == BOTH_WAYS
