"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checker, generate, run, scoring  # noqa: E402
from perfbench.generate import Instance  # noqa: E402
from perfbench.tracer import Tracer, layer_totals, self_times  # noqa: E402


def graph(nx, ny, edges, s_set=(), family="random", kind="solve", k=0):
    return Instance("t", family, kind, nx=nx, ny=ny, edges=tuple(sorted(edges)),
                    s_set=tuple(s_set), k=k)


K22 = [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# checker


def test_checker_accepts_valid_spair():
    inst = graph(2, 2, K22, s_set=(0,))
    assert checker.check_solve(inst, 0, "c method X\nRESULT yes\nM1 1:1 2:2\nM2 1:2\n") == "yes"


@pytest.mark.parametrize("out, why", [
    ("RESULT yes\nM1 1:1\nM2 1:2\n", "M1 does not saturate X"),
    ("RESULT yes\nM1 1:1 2:1\nM2 1:2\n", "not a matching"),
    ("RESULT yes\nM1 1:1 2:3\nM2 1:2\n", "not an edge"),
    ("RESULT yes\nM1 1:1 2:2\nM2 1:1\n", "share an edge"),
    ("RESULT yes\nM1 1:1 2:2\nM2 2:1\n", "M2 does not saturate S"),
])
def test_checker_rejects_tampered_spair(out, why):
    inst = graph(2, 2, K22, s_set=(0,))
    with pytest.raises(checker.CheckError, match=why):
        checker.check_solve(inst, 0, out)


def test_checker_rejects_no_when_oracle_finds_pair():
    with pytest.raises(checker.CheckError, match="oracle"):
        checker.check_solve(graph(2, 2, K22, s_set=(0, 1)), 1, "RESULT no\n")
    # a path x1-y1-x2 with S = X has no factor, so "no" stands
    assert checker.check_solve(graph(2, 2, [(0, 0), (1, 0)], s_set=(0, 1)), 1, "RESULT no\n") == "no"


def test_small_s_oracle_per_partner():
    # S = {x1}: partner y1 leaves x2 only y2; partner y2 leaves x2 nothing free
    inst = graph(2, 2, [(0, 0), (0, 1), (1, 1)], s_set=(0,), family="sparse")
    assert checker.small_s_has_pair(inst)
    inst = graph(2, 2, [(0, 0), (1, 0)], s_set=(0,), family="sparse")
    assert not checker.small_s_has_pair(inst)
    assert not checker.small_s_has_pair(graph(3, 2, K22, s_set=(0, 1), family="surplus"))


def test_checker_lebensold_holds_and_tampered_matchings():
    inst = graph(2, 2, K22, kind="lebensold", k=2)
    assert checker.check_lebensold(inst, 0, "HOLDS\nM1 1:1 2:2\nM2 1:2 2:1\n") == "holds"
    with pytest.raises(checker.CheckError, match="shares an edge"):
        checker.check_lebensold(inst, 0, "HOLDS\nM1 1:1 2:2\nM2 1:1 2:2\n")
    with pytest.raises(checker.CheckError, match="does not saturate"):
        checker.check_lebensold(inst, 0, "HOLDS\nM1 1:1 2:2\nM2 1:2\n")


def test_checker_lebensold_witness():
    # both X vertices see only y1: W = {x1, x2} gives min(2, 2) = 2 < 2*2
    inst = graph(2, 2, [(0, 0), (1, 0), (1, 1)], kind="lebensold", k=2)
    assert checker.check_lebensold(inst, 1, "VIOLATED 1\n") == "violated"
    assert checker.check_lebensold(inst, 1, "VIOLATED 1 2\n") == "violated"
    with pytest.raises(checker.CheckError, match="does not violate"):
        checker.check_lebensold(inst, 1, "VIOLATED 2\n")
    with pytest.raises(checker.CheckError, match="empty"):
        checker.check_lebensold(inst, 1, "VIOLATED\n")


def _sat_outputs(inst, tmp_path):
    from sdmatch import cli

    generate.write_instances([inst], tmp_path)
    return run.run_steps(cli, inst)


def test_checker_sat_pipeline_and_tampered_assignment(tmp_path):
    clauses = ((1, 2, -3), (-1, 2, 3), (1, -2, 3))
    inst = Instance("f", "random-3cnf", "sat", num_vars=3, clauses=clauses)
    outputs = _sat_outputs(inst, tmp_path)
    assert checker.check_sat(inst, outputs) == "yes"
    values = checker.parse_assignment(outputs["decode"][1], 3)
    for var in values:
        flipped = {v: (not b if v == var else b) for v, b in values.items()}
        line = "v " + " ".join(str(v if b else -v) for v, b in sorted(flipped.items())) + " 0\n"
        tampered = dict(outputs, decode=(0, line))
        if not checker.satisfies(clauses, flipped):
            with pytest.raises(checker.CheckError, match="does not satisfy"):
                checker.check_sat(inst, tampered)
    with pytest.raises(checker.CheckError, match="every variable"):
        checker.check_sat(inst, dict(outputs, decode=(0, "v 1 -2 0\n")))


def test_checker_sat_no_against_brute_force():
    unsat = tuple((a, b, c) for a in (1, -1) for b in (2, -2) for c in (3, -3))
    outputs = {"reduce-3sat": (0, ""), "solve": (1, "RESULT no\n"), "decode": (1, "")}
    assert checker.check_sat(Instance("u", "random-3cnf", "sat", num_vars=3, clauses=unsat),
                             outputs) == "no"
    sat = Instance("s", "random-3cnf", "sat", num_vars=3, clauses=unsat[:7])
    with pytest.raises(checker.CheckError, match="satisfiable"):
        checker.check_sat(sat, outputs)


# ---------------------------------------------------------------------------
# tracer


def test_self_time_on_nested_spans():
    # [layer, start, end, parent, instance]
    spans = [
        [0, 0, 100, -1, 0],   # root: children cover 10..60 -> self 50
        [1, 10, 40, 0, 0],    # child: grandchild covers 20..30 -> self 20
        [2, 20, 30, 1, 0],    # leaf
        [1, 30, 60, 0, 0],    # overlaps its sibling; the union is what counts
        [0, 200, 250, -1, 1],  # a second instance, no children
    ]
    assert self_times(spans) == [50, 20, 10, 30, 50]


def test_tracer_wraps_call_sites_and_restores(tmp_path):
    import sdmatch.cli as cli
    import sdmatch.lebensold as lebensold
    from sdmatch.graph import BipartiteGraph

    solve_mod = sys.modules["sdmatch.solve"]  # the package rebinds "solve" to the function

    originals = (cli.run, solve_mod.gf_factor, lebensold.konig_color,
                 BipartiteGraph.__dict__["from_edges"])
    ticks = iter(range(10**6))
    tracer = Tracer(clock=lambda: next(ticks))
    installed = tracer.install(run.LAYERS + (("gone.layer", "sdmatch.solve", "no_such_name"),))
    assert "gone.layer" not in installed and "flow.gf_factor" in installed
    assert solve_mod.gf_factor is not originals[1] and lebensold.gf_factor is solve_mod.gf_factor
    path = tmp_path / "g.sdm"
    path.write_text(generate.sdm_text(2, 2, tuple(K22), (0, 1)))
    tracer.begin_instance(0)
    assert cli.run(["solve", str(path)], stdout=io.StringIO()) == 0
    tracer.end_instance()
    tracer.restore()
    assert (cli.run, solve_mod.gf_factor, lebensold.konig_color,
            BipartiteGraph.__dict__["from_edges"]) == originals
    totals = layer_totals(tracer)
    assert totals["cli.run"][0] == 1 and totals["flow.gf_factor"][0] == 1
    assert totals["flow.feasible_flow"][0] == 1 and tracer.hits["flow.gf_factor"] == 1
    assert sum(ns for _, ns in totals.values()) == tracer.spans[0][2] - tracer.spans[0][1]


# ---------------------------------------------------------------------------
# scoring


def test_par2_and_tail_on_hand_made_sample():
    limit = 10.0
    # an instance counts at the median of its runs: t here
    outcomes = [scoring.Outcome(scoring.SOLVED, [99.0, float(t), t - 0.5]) for t in range(1, 16)]
    outcomes += [scoring.Outcome(scoring.UNDECIDED, [limit]) for _ in range(3)]
    outcomes += [scoring.Outcome(scoring.ERROR, [0.5]) for _ in range(2)]
    s = scoring.summarize(outcomes, limit)
    assert s["par2_s"] == pytest.approx((120 + 5 * 20) / 20)
    assert s["latency_p50_ms"] == pytest.approx(10500)
    # 20 samples: the 11th largest (10 s) has ten above it, at p50
    assert (s["latency_tail_ms"], s["tail_percentile"]) == (pytest.approx(10000), 50.0)
    assert s["solved_frac"] == 0.75 and s["undecided_frac"] == 0.15 and s["error_frac"] == 0.1
    assert s["solved_per_s"] == pytest.approx(15 / (120 + 30 + 1))


def _report(failures):
    summary = scoring.summarize([scoring.Outcome(scoring.SOLVED, [1.0])] * 11, 1.0)
    summary.update(setup_s=0.1, peak_rss_mb=1.0)
    return {"workload": "w", "seed": 1, "limit_s": 1.0, "families": {}, "verdicts": {},
            "summary": summary, "timed_s": 1.0, "most_runs": 1, "setups": 5, "gauge_ms": 2.0,
            "failures": failures}


def test_failed_counts_all_but_known_defect_crashes_and_timeouts(capsys):
    known = [("chain-n1500", scoring.ERROR, "RecursionError: depth", "RecursionError"),
             ("surplus-0-s4", scoring.UNDECIDED, "no verdict within T=1s", "BoundedS")]
    result = run.print_report(_report(known), trace=False)
    assert (result["correct"], result["failed"]) == (True, 0)
    unexpected = [("chain-n800", scoring.ERROR, "RecursionError: depth", ""),
                  ("sparse-00", scoring.UNDECIDED, "no verdict within T=1s", ""),
                  ("chain-n4000", scoring.ERROR, f"{run.WRONG} invalid S-pair", "RecursionError")]
    result = run.print_report(_report(known + unexpected), trace=False)
    assert (result["correct"], result["failed"]) == (False, 3)
    assert capsys.readouterr().out.count("FAILED") == 3


def test_runs_per_instance_depends_only_on_the_budget():
    for workload, nominal in run.PASS_SECONDS.items():
        assert run.runs_per_instance(workload, 10 * nominal) == 10
        assert run.runs_per_instance(workload, 0.1) == run.MIN_RUNS


def test_scaled_time_uses_the_gauges_around_the_call(monkeypatch):
    # gauge REF before the call and 3*REF after it: the host ran at half speed
    monkeypatch.setattr(run, "gauge_seconds", lambda: 3 * run.REFERENCE_GAUGE_S)
    runner = run.Runner([], 1.0, Path("warmup.sdm"))
    assert runner.scaled(0.6, run.REFERENCE_GAUGE_S) == pytest.approx(0.3)
    assert runner.gauges == [3 * run.REFERENCE_GAUGE_S]


def test_tail_percentile_moves_with_sample_count():
    assert scoring.tail([float(v) for v in range(40)]) == (29.0, 75.0)
    with pytest.raises(ValueError):
        scoring.tail([1.0] * 10)


# ---------------------------------------------------------------------------
# generator and config


@pytest.mark.parametrize("workload", sorted(generate.GENERATORS))
def test_generator_is_deterministic(workload, tmp_path):
    first = generate.GENERATORS[workload](7)
    again = generate.GENERATORS[workload](7)
    other = generate.GENERATORS[workload](8)
    assert [i.text() for i in first] == [i.text() for i in again]
    assert [i.text() for i in first] != [i.text() for i in other]
    generate.write_instances(first, tmp_path / "a")
    generate.write_instances(again, tmp_path / "b")
    for a, b in zip(first, again):
        assert a.input_path.read_bytes() == b.input_path.read_bytes()


def test_sat_search_takes_every_satisfiable_clause_set_once():
    instances = generate.sat_search(3)
    sets = [frozenset(frozenset(c) for c in inst.clauses) for inst in instances]
    assert all(len(inst.clauses) == generate.SAT_CLAUSES for inst in instances)
    assert len(set(sets)) == len(sets) == 70 + 56 + 28 + 8
    assert {len(s) for s in sets} == set(generate.SAT_DISTINCT)
    for inst in instances:
        assert checker.brute_force_sat(inst.num_vars, inst.clauses)


def test_benchmark_json_matches_the_code():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in config["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == \
        run.per_layer_specs()
    for entry in config["workloads"]:
        assert entry["why"].startswith(f"T={run.LIMITS[entry['name']]:g}s.")


def test_record_matches_the_code():
    record = json.loads((ROOT / "perfbench" / "RECORD.json").read_text())
    assert record["limits_s"] == run.LIMITS
    defects = {(d["workload"], d["family"]) for d in record["known_defects"]}
    for workload, make in generate.GENERATORS.items():
        instances = make(1)
        assert record["families"][workload] == dict(Counter(i.family for i in instances))
        assert {(workload, i.family) for i in instances if i.known_defect} == \
            {d for d in defects if d[0] == workload}


def test_known_defects_mark_only_the_failing_sizes():
    marked = {i.name for i in generate.small_s_matching(1) if i.known_defect}
    assert {"chain-n1500", "chain-n4000", "chain-n10000"} <= marked
    assert not {"chain-n200", "chain-n800"} & marked
    assert all(i.family in ("chain", "surplus") for i in generate.small_s_matching(1)
               if i.known_defect)
    assert all(bool(i.known_defect) == (i.nx > 20) for i in generate.lebensold_k(1))
