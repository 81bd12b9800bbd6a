import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sdmatch
from sdmatch import BipartiteGraph, SdmInstance, is_matching, parse_instance, serialize_instance
from sdmatch.cli import run
from sdmatch.reductions import GadgetMap
from conftest import chain_graph


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def c8_instance_text():
    gm = GadgetMap(2, 1)
    edges = [gm.cycle_edge(1, j) for j in range(1, 9)]
    g = BipartiteGraph.from_edges(4, 4, edges)
    s_set = [gm.cycle_x(1, j) for j in (2, 6)]
    return serialize_instance(SdmInstance.make(g, s_set))


def test_solve_c8_yes(tmp_path):
    path = write(tmp_path, "c8.sdm", c8_instance_text())
    code, out, _ = invoke(["solve", path])
    assert code == 0
    assert "RESULT yes" in out


def test_solve_single_edge_no(tmp_path):
    path = write(tmp_path, "e.sdm", "p sdm 1 1 1\ne 1 1\ns 1\n")
    code, out, _ = invoke(["solve", path])
    assert code == 1
    assert "RESULT no" in out


def test_solve_budget_exhausted(tmp_path):
    # force the exact route with a tiny budget
    g = BipartiteGraph.from_edges(12, 12, [(x, y) for x in range(12) for y in range(12)])
    inst = SdmInstance.make(g, range(10))
    path = write(tmp_path, "big.sdm", serialize_instance(inst))
    code, out, _ = invoke(["solve", path, "--budget", "2"])
    assert code == 3


def test_verify_accepts_solve_output(tmp_path):
    path = write(tmp_path, "c8.sdm", c8_instance_text())
    code, out, _ = invoke(["solve", path])
    solution = write(tmp_path, "c8.sol", out)
    code, out, _ = invoke(["verify", path, solution])
    assert code == 0
    assert out.startswith("VALID")


def test_verify_rejects_bad_solution(tmp_path):
    path = write(tmp_path, "e.sdm", "p sdm 1 1 1\ne 1 1\ns 1\n")
    solution = write(tmp_path, "bad.sol", "RESULT yes\nM1 1:1\nM2 1:1\n")
    code, out, _ = invoke(["verify", path, solution])
    assert code == 1
    assert "INVALID not disjoint" in out


def test_oracle_c8_counts_two(tmp_path):
    path = write(tmp_path, "c8.sdm", c8_instance_text())
    code, out, _ = invoke(["oracle", path])
    assert code == 0
    assert out == "2\n"


def test_lebensold_holds(tmp_path):
    path = write(tmp_path, "k22.sdm", "p sdm 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\n")
    code, out, _ = invoke(["lebensold", path, "-k", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "HOLDS"
    assert lines[1].startswith("M1") and lines[2].startswith("M2")


def test_lebensold_violated(tmp_path):
    path = write(tmp_path, "bad.sdm", "p sdm 2 1 2\ne 1 1\ne 2 1\n")
    code, out, _ = invoke(["lebensold", path, "-k", "1"])
    assert code == 1
    assert out == "VIOLATED 1 2\n"


def test_lebensold_runs_one_max_flow(tmp_path, monkeypatch):
    from sdmatch.flow import _MaxFlow
    runs = []
    original = _MaxFlow.run
    monkeypatch.setattr(_MaxFlow, "run", lambda net, s, t: runs.append(s) or original(net, s, t))
    path = write(tmp_path, "k22.sdm", "p sdm 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\n")
    for k, code in ((2, 0), (3, 1)):
        runs.clear()
        assert invoke(["lebensold", path, "-k", str(k)])[0] == code
        assert len(runs) == 1


def test_lebensold_k4_on_150_x_vertices(tmp_path):
    # a 2^|X| check could not run at this size; the flow route answers
    rng = random.Random(5)
    g = BipartiteGraph.from_edges(150, 225, [(x, y) for x in range(150) for y in rng.sample(range(225), 8)])
    path = write(tmp_path, "roomy.sdm", serialize_instance(SdmInstance.make(g, [])))
    code, out, _ = invoke(["lebensold", path, "-k", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "HOLDS" and len(lines) == 5
    seen = set()
    for idx, line in enumerate(lines[1:], start=1):
        label, *pairs = line.split()
        assert label == f"M{idx}"
        edges = {(int(a) - 1, int(b) - 1) for a, b in (p.split(":") for p in pairs)}
        assert is_matching(g, edges)
        assert {x for x, _ in edges} == set(range(150))
        assert not (edges & seen)
        seen |= edges
    assert invoke(["lebensold", path, "-k", "4"])[1] == out


def test_gen_reproducible():
    code1, out1, _ = invoke(["gen", "--nx", "5", "--ny", "5", "--seed", "7", "--s-size", "2"])
    code2, out2, _ = invoke(["gen", "--nx", "5", "--ny", "5", "--seed", "7", "--s-size", "2"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("c seed 7\n")
    parse_instance("\n".join(out1.splitlines()[1:]) + "\n")


def test_gen_output_pinned():
    code, out, _ = invoke(["gen", "--nx", "5", "--ny", "5", "--density", "0.6",
                           "--s-size", "2", "--seed", "99"])
    assert code == 0
    assert out == (
        "c seed 99\np sdm 5 5 15\n"
        "e 1 1\ne 1 2\ne 1 3\ne 1 4\ne 2 1\ne 2 2\ne 2 4\ne 3 1\n"
        "e 3 2\ne 3 4\ne 4 1\ne 4 2\ne 4 4\ne 5 2\ne 5 4\ns 3 4\n"
    )


@pytest.mark.parametrize("argv, message", [
    (["--density", "2"], "density must lie in [0, 1]"),
    (["--s-size", "6"], "s-size must lie in [0, nx]"),
])
def test_gen_rejects_out_of_range_values(argv, message):
    argv = ["gen", "--nx", "5", "--ny", "5", "--seed", "1"] + argv
    assert invoke(argv) == (2, "", f"error: {message}\n")


def test_pipeline_3sat_solve_decode(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 1\n1 -2 3 0\n")
    map_path = str(tmp_path / "f.map")
    code, out, _ = invoke(["reduce-3sat", cnf, "--map", map_path])
    assert code == 0
    inst_path = write(tmp_path, "f.sdm", out)
    code, out, _ = invoke(["solve", inst_path])
    assert code == 0
    sol_path = write(tmp_path, "f.sol", out)
    code, out, _ = invoke(["decode", map_path, sol_path])
    assert code == 0
    assert out.startswith("v ") and out.endswith(" 0\n")
    lits = [int(t) for t in out.split()[1:-1]]
    assignment = {abs(l): l > 0 for l in lits}
    # satisfies (x1 or not x2 or x3)
    assert assignment[1] or not assignment[2] or assignment[3]


def test_reduce_3sat_unsat_formula_roundtrip(tmp_path):
    cnf = write(tmp_path, "u.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    map_path = str(tmp_path / "u.map")
    code, out, _ = invoke(["reduce-3sat", cnf, "--map", map_path])
    assert code == 0
    inst_path = write(tmp_path, "u.sdm", out)
    code, out, _ = invoke(["solve", inst_path])
    assert code == 1


def test_reduce_dm_files(tmp_path):
    path = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    g1 = str(tmp_path / "g1.txt")
    g2 = str(tmp_path / "g2.txt")
    code, _, _ = invoke(["reduce-dm", path, "--g1", g1, "--g2", g2])
    assert code == 0
    g1_inst = parse_instance(open(g1).read())
    g2_inst = parse_instance(open(g2).read())
    assert g1_inst.graph.num_edges() == 1
    assert g2_inst.graph.num_edges() == 1 + 6


def test_unknown_flag_exits_2():
    code, _, err = invoke(["solve", "--nope"])
    assert code == 2
    assert "error:" in err


def test_unreadable_file_exits_2():
    code, _, err = invoke(["solve", "/does/not/exist"])
    assert code == 2
    assert "error:" in err


def test_unwritable_map_exits_2_without_traceback(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 1\n1 -2 3 0\n")
    map_path = str(tmp_path / "missing" / "f.map")
    code, _, err = invoke(["reduce-3sat", cnf, "--map", map_path])
    assert code == 2
    assert err.startswith(f"error: cannot write {map_path}: ")
    assert "Traceback" not in err


def test_unwritable_g1_exits_2_without_traceback(tmp_path):
    path = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    g1 = str(tmp_path / "missing" / "g1.txt")
    code, _, err = invoke(["reduce-dm", path, "--g1", g1])
    assert code == 2
    assert err.startswith(f"error: cannot write {g1}: ")
    assert "Traceback" not in err


def test_unwritable_map_prints_nothing(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 3 1\n1 -2 3 0\n")
    code, out, _ = invoke(["reduce-3sat", cnf, "--map", str(tmp_path / "missing" / "f.map")])
    assert (code, out) == (2, "")


def test_unwritable_g2_prints_and_leaves_nothing(tmp_path):
    path = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    g1, g2 = tmp_path / "a.sdm", str(tmp_path / "missing" / "b.sdm")
    code, out, err = invoke(["reduce-dm", path, "--g1", str(g1), "--g2", g2])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {g2}: ")
    assert not g1.exists()
    # nor is G1 printed when it was meant for stdout
    assert invoke(["reduce-dm", path, "--g2", g2])[:2] == (2, "")


def test_failed_reduce_dm_keeps_an_existing_output_file(tmp_path):
    path = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    g1, g2 = tmp_path / "a.sdm", str(tmp_path / "missing" / "b.sdm")
    g1.write_bytes(b"old contents\n")
    code, out, err = invoke(["reduce-dm", path, "--g1", str(g1), "--g2", g2])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {g2}: ")
    assert g1.read_bytes() == b"old contents\n"
    # a directory in place of an output file is refused before any write too
    code, out, err = invoke(["reduce-dm", path, "--g1", str(g1), "--g2", str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    assert g1.read_bytes() == b"old contents\n"
    # and so is a dangling symlink, which open would follow into a missing directory
    link = tmp_path / "b.sdm"
    link.symlink_to(tmp_path / "missing" / "b.sdm")
    code, out, err = invoke(["reduce-dm", path, "--g1", str(g1), "--g2", str(link)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {link}: ")
    assert g1.read_bytes() == b"old contents\n"


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_failed_reduce_dm_keeps_output_before_a_read_only_file(tmp_path):
    path = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    g1, g2 = tmp_path / "a.sdm", tmp_path / "b.sdm"
    g1.write_bytes(b"old contents\n")
    g2.write_bytes(b"read only\n")
    g2.chmod(0o444)
    code, out, err = invoke(["reduce-dm", path, "--g1", str(g1), "--g2", str(g2)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {g2}: ")
    assert (g1.read_bytes(), g2.read_bytes()) == (b"old contents\n", b"read only\n")


def test_write_failing_after_the_check_removes_created_files(tmp_path, monkeypatch):
    """A failure the check cannot foresee (a full disk, say) still takes back
    the files this call created."""
    import sdmatch.cli as cli

    path = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    g1, g2 = tmp_path / "a.sdm", str(tmp_path / "b.sdm")

    def open_failing_on_g2(name, *args, **kwargs):
        if name == g2:
            raise OSError(28, "No space left on device")
        return open(name, *args, **kwargs)

    monkeypatch.setattr(cli, "open", open_failing_on_g2, raising=False)
    code, out, err = invoke(["reduce-dm", path, "--g1", str(g1), "--g2", g2])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {g2}: ")
    assert not g1.exists()


def test_format_violation_exits_2(tmp_path):
    path = write(tmp_path, "bad.sdm", "p sdm 1 1 0\nz 1\n")
    code, _, err = invoke(["solve", path])
    assert code == 2
    assert "unknown directive" in err


def complete_instance(nx, ny, s_size):
    g = BipartiteGraph.from_edges(nx, ny, [(x, y) for x in range(nx) for y in range(ny)])
    return serialize_instance(SdmInstance.make(g, range(s_size)))


def test_bounded_s_surplus_x_is_no_after_hall_check(tmp_path):
    # |X| > |Y|: no X-saturating matching, so the budget is never touched
    path = write(tmp_path, "surplus.sdm", complete_instance(12, 11, 8))
    code, out, _ = invoke(["solve", path, "--budget", "100"])
    assert code == 1
    assert "c method BoundedS" in out
    assert "RESULT no" in out


def test_bounded_s_honours_budget(tmp_path):
    path = write(tmp_path, "k1212.sdm", complete_instance(12, 12, 8))
    code, out, _ = invoke(["solve", path, "--budget", "5"])
    assert code == 3
    assert "budget 5 exhausted" in out
    code, out, _ = invoke(["solve", path])
    assert code == 0
    assert "c method BoundedS" in out


def test_solve_chain_1500_yes(tmp_path):
    # a recursive matching kernel overflowed the Python stack here
    path = write(tmp_path, "chain.sdm", serialize_instance(SdmInstance.make(chain_graph(1500), [])))
    code, out, _ = invoke(["solve", path])
    assert code == 0
    assert "RESULT yes" in out


def test_oracle_chain_1200_exits_0(tmp_path):
    # a recursive enumerator of the M1 candidates overflowed the Python stack
    path = write(tmp_path, "chain.sdm", serialize_instance(SdmInstance.make(chain_graph(1200), [])))
    assert invoke(["oracle", path, "--limit", "5000"]) == (0, "1\n", "")


def test_crash_exits_2_not_no(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("sdmatch.cli.solve_instance", crash)
    path = write(tmp_path, "c8.sdm", c8_instance_text())
    code, out, err = invoke(["solve", path])
    assert code == 2
    assert "RESULT" not in out
    assert err.startswith("error: internal: RuntimeError: boom\n")
    assert "Traceback" in err


def test_keyboard_interrupt_propagates(tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("sdmatch.cli.solve_instance", interrupt)
    path = write(tmp_path, "c8.sdm", c8_instance_text())
    with pytest.raises(KeyboardInterrupt):
        invoke(["solve", path])


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    path = write(tmp_path, "c8.sdm", c8_instance_text())
    err = io.StringIO()
    assert run(["solve", path], stdout=ClosedPipe(), stderr=err) == 2
    assert "Traceback" not in err.getvalue()
    assert "internal" not in err.getvalue()


@pytest.mark.parametrize("text", [
    c8_instance_text(),  # output stays buffered until main() flushes it
    serialize_instance(SdmInstance.make(chain_graph(1500), [])),  # a write inside run() fails
])
def test_main_on_closed_pipe_is_quiet(tmp_path, text):
    path = write(tmp_path, "i.sdm", text)
    src = str(Path(sdmatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as it is for users
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "sdmatch.cli", "solve", path],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""
