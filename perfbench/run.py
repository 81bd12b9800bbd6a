#!/usr/bin/env python3
"""Time-to-checked-verdict benchmark of the sdmatch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

One process, one thread, one closed-loop client: each instance's command
sequence goes through ``sdmatch.cli.run`` (the code path of the ``sdmatch``
command) under a per-instance wall-time limit T. The instance files are
generated from ``--seed`` under ``.perfbench_work/`` and removed at exit.

Untraced (``--trace 0``): one pass over every instance, then reruns of the
instances that got a verdict, each the same number of times; every rerun
must repeat its output byte for byte. The number of runs follows from
``--seconds`` and the workload's nominal pass time, never from how fast the
program is. A set-up (fresh import, parse of every file, one warm-up call)
precedes each pass. Traced (``--trace 1``): each instance runs once
untraced and once, straight after, with the call-site tracer installed;
spans go to ``.perfbench_work/spans-<workload>-<seed>.tsv``.

Every verdict is then checked by ``perfbench.checker``, which never calls
the solver under test. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts the
answers that failed the check and the crashes and time-outs of instances
outside the known-defect families. Exits 2 without a result when the
sdmatch sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checker, generate  # noqa: E402
from perfbench.scoring import ERROR, SOLVED, UNDECIDED, Outcome, summarize  # noqa: E402
from perfbench.tracer import LAYERS, Tracer, layer_totals  # noqa: E402

# Per-instance wall-time limit T in seconds, fixed per workload. Each sits
# well above the slowest instance that gets a verdict at the first commit
# measured, so a verdict never flips on timing noise.
LIMITS = {
    "poly-factor": 2.0,
    "small-s-matching": 1.0,
    "lebensold-k": 4.0,
    "sat-search": 2.0,
}
# Seconds one pass over the solved instances took at the measured commit; a
# run makes round(--seconds / this) runs of each, so the number of runs an
# instance's median is taken over is the same on every commit.
PASS_SECONDS = {
    "poly-factor": 8.0,
    "small-s-matching": 4.0,
    "lebensold-k": 8.0,
    "sat-search": 4.5,
}
MIN_RUNS = 3
# passes stop early only when a program is this many times slower than the
# nominal pass time, to keep a run within its time limit
MAX_SLOWDOWN = 3
MIN_SETUPS = 10
PIN_INTERVAL = 0.2  # seconds between two choices of CPU
# the gauge time that scaled times refer to: about what gauge_seconds takes
# on a lightly loaded CPU of the 2-vCPU Xeon VM measured
REFERENCE_GAUGE_S = 0.004
# a gauge time this recent (seconds) also serves as the next call's "before"
GAUGE_REUSE = 0.05
PENDING = "pending"
WRONG = "wrong:"  # reason prefix of an answer that failed the check
ROUTES = ("PolyLargeS", "BoundedS", "ExactBacktrack")

END_TO_END = (
    ("par2_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("solved_per_s", "1/s", "higher"),
    ("solved_frac", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = []
    for layer, _, _ in LAYERS:
        specs += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_ms", "ms", "lower"),
                  (f"{layer}.share", "ratio", "lower")]
    specs += [
        ("flow.gf_factor.found_ratio", "ratio", "higher"),
        ("matching.has_x_saturating_matching.false_ratio", "ratio", "higher"),
        ("search.checks_per_decision", "count", "lower"),
        ("search.checks_per_s", "1/s", "higher"),
    ]
    specs += [(f"solve.route.{route}", "count", "higher") for route in ROUTES]
    specs += [("trace.overhead", "ratio", "lower"), ("undecided_frac", "ratio", "lower"),
              ("error_frac", "ratio", "lower")]
    return specs


# ---------------------------------------------------------------------------
# Running one instance


class InstanceTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot swallow it."""


class StepFailed(Exception):
    """A CLI step exited with a code other than 0 (yes) or 1 (no)."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def _call(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, stdout=out, stderr=err)
    if code not in (0, 1):
        raise StepFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()[:160]}")
    return code, out.getvalue()


def run_steps(cli, inst: generate.Instance) -> dict[str, tuple[int, str]]:
    """The instance's CLI command sequence; step name -> (exit code, stdout)."""
    p = {role: str(path) for role, path in inst.paths.items()}
    if inst.kind == "solve":
        return {"solve": _call(cli, ["solve", p["sdm"]])}
    if inst.kind == "lebensold":
        return {"lebensold": _call(cli, ["lebensold", p["sdm"], "-k", str(inst.k)])}
    outputs = {"reduce-3sat": _call(cli, ["reduce-3sat", p["cnf"], "--map", p["map"]])}
    inst.paths["sdm"].write_text(outputs["reduce-3sat"][1], encoding="ascii")
    outputs["solve"] = _call(cli, ["solve", p["sdm"]])
    inst.paths["sol"].write_text(outputs["solve"][1], encoding="ascii")
    outputs["decode"] = _call(cli, ["decode", p["map"], p["sol"]])
    return outputs


# fixed inputs of the gauge: a random graph with three out-neighbours per
# vertex, and the three-member neighbourhoods of a subset enumeration
_rng = random.Random(0)
GAUGE_GRAPH = [[_rng.randrange(2000) for _ in range(3)] for _ in range(2000)]
GAUGE_SETS = [_rng.sample(range(7), 3) for _ in range(12)]
del _rng


def gauge_seconds() -> float:
    """Wall time of a fixed pure-Python task that shares no code with the
    program but has the shapes of its kernels, about equal parts of each: an
    integer loop, the bit tests of a subset enumeration (lebensold), and
    breadth-first searches recording parents (matching and flow)."""
    start = time.perf_counter()
    sum(i * i % 7 for i in range(20000))
    for mask in range(1 << 7):
        members = [x for x in range(7) if mask >> x & 1]
        sum(min(len(members), sum(1 for x in ys if mask >> x & 1)) for ys in GAUGE_SETS)
    for source in (0, 700):
        parent = {source: source}
        queue = [source]
        for u in queue:
            for v in GAUGE_GRAPH[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
    return time.perf_counter() - start


class Runner:
    """Runs a workload's instances through the CLI, one at a time, under T.

    Host-normalised times. On a shared host the speed of a CPU changes by
    up to half within seconds, as other tenants come and go, and all CPUs
    can be slow together for minutes. So every timed call is bracketed by
    the fixed task of ``gauge_seconds`` on the same CPU, and its wall time
    is scaled by REFERENCE_GAUGE_S over the mean of the two gauge times: the
    time the call would take on a host where the gauge takes
    REFERENCE_GAUGE_S. A call and the gauges around it see the same host, so
    the scaled time changes far less than the wall time (see README.md). A
    time-out counts at T, the wall time a user waits.

    Before a timed call it also pins the process to the allowed CPU that
    runs the gauge fastest at that moment, choosing again at most every
    PIN_INTERVAL seconds, since other tenants often slow one CPU at a time.
    """

    def __init__(self, instances: list[generate.Instance], limit: float, warmup: Path) -> None:
        self.instances = instances
        self.limit = limit
        self.warmup = warmup
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.cli = None
        self.setups: list[float] = []
        self.pinned_at = -PIN_INTERVAL
        # every gauge time taken next to a call, and when the latest one was
        self.gauges: list[float] = []
        self.gauged_at = -GAUGE_REUSE

    def gauge(self) -> float:
        self.gauges.append(gauge_seconds())
        self.gauged_at = time.perf_counter()
        return self.gauges[-1]

    def pin_fastest_cpu(self) -> None:
        if len(self.cpus) < 2 or time.perf_counter() - self.pinned_at < PIN_INTERVAL:
            return
        timed = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timed.append((gauge_seconds(), cpu))
        os.sched_setaffinity(0, {min(timed)[1]})
        self.pinned_at = time.perf_counter()

    def before_call(self) -> float:
        """Pin if due; the gauge time on this CPU just before the call."""
        self.pin_fastest_cpu()
        if time.perf_counter() - self.gauged_at < GAUGE_REUSE and self.pinned_at < self.gauged_at:
            return self.gauges[-1]
        return self.gauge()

    def scaled(self, wall: float, before: float) -> float:
        return wall * REFERENCE_GAUGE_S / ((before + self.gauge()) / 2)

    def set_up(self) -> None:
        """Import sdmatch afresh, parse every instance file once, one warm-up call."""
        for name in [n for n in sys.modules if n == "sdmatch" or n.startswith("sdmatch.")]:
            del sys.modules[name]
        gc.collect()  # the dropped modules are freed here, not inside the timing
        before = self.before_call()
        start = time.perf_counter()
        cli = importlib.import_module("sdmatch.cli")
        parse_sdm = sys.modules["sdmatch.graph"].parse_instance
        parse_cnf = sys.modules["sdmatch.reductions"].parse_dimacs_cnf
        for inst in self.instances:
            text = inst.input_path.read_text(encoding="ascii")
            (parse_cnf if inst.kind == "sat" else parse_sdm)(text)
        _call(cli, ["solve", str(self.warmup)])
        self.setups.append(self.scaled(time.perf_counter() - start, before))
        self.cli = cli

    def attempt(self, inst: generate.Instance):
        """(status, scaled seconds, wall seconds, outputs or None, reason) for
        one run under T; a time-out takes T."""
        before = self.before_call()
        start = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.limit)
                outputs = run_steps(self.cli, inst)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                wall = time.perf_counter() - start
                scaled = self.scaled(wall, before)
        except InstanceTimeout:
            return UNDECIDED, self.limit, wall, None, f"no verdict within T={self.limit:g}s"
        except Exception as exc:  # a crash of the program under test is a scored outcome
            reason = f"{type(exc).__name__}: {exc}".splitlines()[0][:200]
            return ERROR, scaled, wall, None, reason
        return PENDING, scaled, wall, outputs, ""

    def first_pass(self):
        """One run of every instance: (outcomes, outputs, seconds spent)."""
        outcomes, outputs = [], []
        start = time.perf_counter()
        for inst in self.instances:
            status, scaled, _, out, reason = self.attempt(inst)
            outcomes.append(Outcome(status, [scaled], reason))
            outputs.append(out)
        return outcomes, outputs, time.perf_counter() - start

    def paired_pass(self, tracer: Tracer):
        """Run each instance untraced and then at once traced, so that both
        runs see the same load: (outcomes, outputs) untraced, then traced,
        then the traced runs' wall seconds."""
        plain, plain_out, traced, traced_out = [], [], [], []
        traced_wall = 0.0
        for index, inst in enumerate(self.instances):
            status, scaled, _, out, reason = self.attempt(inst)
            plain.append(Outcome(status, [scaled], reason))
            plain_out.append(out)
            tracer.install()
            tracer.begin_instance(index)
            try:
                status, scaled, wall, out, reason = self.attempt(inst)
            finally:
                tracer.end_instance()
                tracer.restore()
            traced.append(Outcome(status, [scaled], reason))
            traced_out.append(out)
            traced_wall += wall
        return plain, plain_out, traced, traced_out, traced_wall

    def rerun_pass(self, outcomes, outputs) -> float:
        """Rerun once, in order, each instance that still has a verdict;
        return the seconds spent."""
        start = time.perf_counter()
        for i, outcome in enumerate(outcomes):
            if outcome.status != PENDING:
                continue
            status, scaled, _, out, reason = self.attempt(self.instances[i])
            if status != PENDING:
                outcomes[i] = Outcome(status, [scaled], f"{reason} (on a rerun)")
            elif out != outputs[i]:
                outcomes[i] = Outcome(ERROR, [scaled], f"{WRONG} output differs between runs")
            else:
                outcome.walls.append(scaled)
        return time.perf_counter() - start


def check_all(instances, outcomes, outputs) -> Counter:
    verdicts: Counter = Counter()
    for inst, outcome, out in zip(instances, outcomes, outputs):
        if outcome.status != PENDING:
            continue
        try:
            verdicts[checker.check(inst, out)] += 1
            outcome.status = SOLVED
        except (checker.CheckError, ValueError) as exc:
            outcome.status = ERROR
            outcome.reason = f"{WRONG} {exc}"
    return verdicts


# ---------------------------------------------------------------------------
# Per-layer figures


def layer_metrics(tracer: Tracer, wall: float, outcomes, outputs, untraced, limit) -> dict:
    totals = layer_totals(tracer)
    metrics: dict[str, float] = {}
    for layer, _, _ in LAYERS:
        calls, ns = totals.get(layer, (0, 0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_ms"] = ns / 1e6
        metrics[f"{layer}.share"] = ns / 1e9 / wall
    for layer, key in (("flow.gf_factor", "found_ratio"),
                       ("matching.has_x_saturating_matching", "false_ratio")):
        calls = totals.get(layer, (0, 0))[0]
        metrics[f"{layer}.{key}"] = tracer.hits[layer] / calls if calls else 0.0

    # matching calls issued from inside solve.solve stand in for search steps
    names = [tracer.layers[s[0]] for s in tracer.spans]
    in_solve: list[bool] = []
    checks: Counter = Counter()
    solve_ns = 0
    for idx, span in enumerate(tracer.spans):
        parent = span[3]
        inside = parent >= 0 and (names[parent] == "solve.solve" or in_solve[parent])
        in_solve.append(inside)
        if names[idx] == "solve.solve":
            solve_ns += span[2] - span[1]
        elif inside and names[idx] in ("matching.max_matching",
                                       "matching.has_x_saturating_matching"):
            checks[span[4]] += 1
    decided = [i for i, o in enumerate(outcomes) if o.status == SOLVED and "solve" in outputs[i]]
    metrics["search.checks_per_decision"] = (
        sum(checks[i] for i in decided) / len(decided) if decided else 0.0)
    metrics["search.checks_per_s"] = sum(checks.values()) / (solve_ns / 1e9) if solve_ns else 0.0

    routes: Counter = Counter()
    for out in outputs:
        for line in (out or {}).get("solve", (0, ""))[1].splitlines():
            if line.startswith("c method "):
                routes[line.split()[2]] += 1
    for route in ROUTES:
        metrics[f"solve.route.{route}"] = routes[route]

    def par2(results) -> float:
        return statistics.mean(o.charged(limit) for o in results)

    metrics["trace.overhead"] = par2(outcomes) / par2(untraced)
    return metrics


# ---------------------------------------------------------------------------
# One workload


def runs_per_instance(workload: str, seconds: float) -> int:
    return max(MIN_RUNS, round(seconds / PASS_SECONDS[workload]))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    limit = LIMITS[workload]
    instances = generate.GENERATORS[workload](seed)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        generate.write_instances(instances, work)
        warmup = work / "warmup.sdm"
        warmup.write_text(generate.WARMUP_TEXT, encoding="ascii")

        runner = Runner(instances, limit, warmup)
        runner.set_up()
        if not Path(runner.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"sdmatch was imported from {runner.cli.__file__}, not from {SRC}")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            if trace:
                tracer = Tracer()
                outcomes, outputs, traced, traced_outputs, traced_wall = runner.paired_pass(tracer)
                spent = traced_wall
            else:
                outcomes, outputs, spent = runner.first_pass()
                for _ in range(runs_per_instance(workload, seconds) - 1):
                    if spent > MAX_SLOWDOWN * seconds:
                        break
                    runner.set_up()  # one before each pass, so that set-ups sample the run
                    spent += runner.rerun_pass(outcomes, outputs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        while len(runner.setups) < MIN_SETUPS:
            runner.set_up()
        # read before the checker imports networkx and scipy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        verdicts = check_all(instances, outcomes, outputs)
        if trace:
            # a traced verdict counts as the checked untraced one when the outputs match
            for i, (t, out) in enumerate(zip(traced, traced_outputs)):
                if t.status == PENDING:
                    t.status = outcomes[i].status if out == outputs[i] else ERROR
            WORK.mkdir(exist_ok=True)
            tracer.write_spans(WORK / f"spans-{workload}-{seed}.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # kept while it holds spans or another run's files
        except OSError:
            pass

    summary = summarize(outcomes, limit)
    # the median set-up, by the same rule as the runs of an instance
    summary["setup_s"] = statistics.median(runner.setups)
    summary["peak_rss_mb"] = peak_rss_mb
    families = Counter(inst.family for inst in instances)
    report = {
        "workload": workload, "seed": seed, "limit_s": limit, "families": dict(families),
        "verdicts": dict(verdicts), "summary": summary, "timed_s": spent,
        "most_runs": max(len(o.walls) for o in outcomes), "setups": len(runner.setups),
        "gauge_ms": 1e3 * statistics.median(runner.gauges),
        "failures": [(inst.name, o.status, o.reason, inst.known_defect)
                     for inst, o in zip(instances, outcomes) if o.status != SOLVED],
    }
    if trace:
        report["layers"] = layer_metrics(tracer, traced_wall, traced, traced_outputs,
                                         outcomes, limit)
        report["layers"]["undecided_frac"] = summary["undecided_frac"]
        report["layers"]["error_frac"] = summary["error_frac"]
    return report


def print_report(report: dict, trace: bool) -> dict:
    s = report["summary"]
    print(f"workload {report['workload']} seed {report['seed']} T={report['limit_s']:g}s "
          f"instances {s['samples']} {report['families']} verdicts {report['verdicts']}")
    specs = per_layer_specs() if trace else END_TO_END
    values = report["layers"] if trace else s
    for name, unit, _ in specs:
        print(f"  {name:<48} {values[name]:>14.4f} {unit}")
    print(f"  latency_tail_ms is p{s['tail_percentile']:.1f} of {s['samples']} instances; "
          f"undecided_frac {s['undecided_frac']:.4f} error_frac {s['error_frac']:.4f}")
    print(f"  {report['timed_s']:.1f} s timed, up to {report['most_runs']} runs of an instance, "
          f"{report['setups']} set-ups; host gauge {report['gauge_ms']:.2f} ms (median)")
    failed = 0
    for name, status, reason, known_defect in report["failures"]:
        # a crash or time-out of a known-defect instance is a scored outcome
        # (2*T, solved_frac); any other failure is a failed operation
        expected = known_defect and not reason.startswith(WRONG)
        failed += not expected
        tag = f"known defect ({known_defect})" if expected else "FAILED"
        print(f"  {tag} {report['workload']}/{name}: {status}: {reason}")
    return {
        "correct": failed == 0,
        "attempted": s["samples"],
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }


def run_all(args) -> int:
    """Every workload in BENCHMARK.json, each in a fresh process."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for entry in config["workloads"]:
        name = entry["name"]
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results)
    first = results[names[0]]["metrics"]
    print(f"\n{'metric':<48} {'unit':<6} " + " ".join(f"{n:>18}" for n in names))
    for metric, info in first.items():
        row = " ".join(f"{results[n]['metrics'][metric]['value']:>18.4f}" for n in names)
        print(f"{metric:<48} {info['unit']:<6} {row}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(LIMITS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sdmatch" / "__init__.py").is_file():
        print(f"error: sdmatch sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(print_report(report, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
