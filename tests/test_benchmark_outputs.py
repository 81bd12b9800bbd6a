"""One pin on every output of the benchmark's commands.

For seeds 1-3, each workload's instances from `perfbench.generate` are
written under a temporary directory and run through `cli.run` with the
command sequence of `perfbench/run.py`'s `run_steps`: `solve`, `lebensold
-k`, or `reduce-3sat --map`, `solve` on its stdout and `decode` of the map
and that solution. Each command must exit 0 or 1 with nothing on stderr.
Name, step, exit code, stdout and the map file's bytes fold into one
sha256, so a change that means to keep every output byte must keep it.
The generator is imported and run only.
"""

import hashlib
import importlib
import io
from pathlib import Path

from sdmatch.cli import run

SEEDS = (1, 2, 3)
BENCHMARK_DIGEST = "8a1c831049183ce9ff6c8d9832f66c29ec58519823296add993d1158727e6069"


def _call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    assert code in (0, 1) and err.getvalue() == "", (argv, code, err.getvalue())
    return code, out.getvalue()


def _steps(inst) -> list[tuple[str, tuple[int, str]]]:
    """run_steps's sequence for one instance: (step, (exit code, stdout))."""
    p = {role: str(path) for role, path in inst.paths.items()}
    if inst.kind == "solve":
        return [("solve", _call(["solve", p["sdm"]]))]
    if inst.kind == "lebensold":
        return [("lebensold", _call(["lebensold", p["sdm"], "-k", str(inst.k)]))]
    reduced = _call(["reduce-3sat", p["cnf"], "--map", p["map"]])
    inst.paths["sdm"].write_text(reduced[1], encoding="ascii")
    solved = _call(["solve", p["sdm"]])
    inst.paths["sol"].write_text(solved[1], encoding="ascii")
    return [("reduce-3sat", reduced), ("solve", solved),
            ("decode", _call(["decode", p["map"], p["sol"]]))]


def test_benchmark_outputs_are_pinned(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    generate = importlib.import_module("perfbench.generate")
    digest = hashlib.sha256()
    commands = 0
    for seed in SEEDS:
        for workload, make in generate.GENERATORS.items():
            instances = make(seed)
            generate.write_instances(instances, tmp_path / f"{workload}-{seed}")
            for inst in instances:
                for step, (code, out) in _steps(inst):
                    commands += 1
                    digest.update(f"{seed} {workload} {inst.name} {step} {code} {len(out)}\n"
                                  f"{out}".encode())
                if inst.kind == "sat":
                    data = inst.paths["map"].read_bytes()
                    digest.update(f"map {len(data)}\n".encode() + data)
    assert commands == 1848
    assert digest.hexdigest() == BENCHMARK_DIGEST
