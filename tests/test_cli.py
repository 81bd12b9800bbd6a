import gc
import io
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest

import sdmatch
from sdmatch import (BipartiteGraph, SdmInstance, is_matching, parse_instance, serialize_instance,
                     serialize_solution, solve)
from sdmatch.cli import _COMMANDS, _parse_by_argparse, _parse_plain_argv, generate_instance, run
from sdmatch.graph import MAX_VERTICES
from sdmatch.reductions import CnfFormula, reduce_3sat_to_sdm
from conftest import c8_cycle, chain_graph

C8_TEXT = serialize_instance(c8_cycle()[0])


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_c8_yes(tmp_path):
    path = write(tmp_path, "c8.sdm", C8_TEXT)
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
    path = write(tmp_path, "c8.sdm", C8_TEXT)
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
    path = write(tmp_path, "c8.sdm", C8_TEXT)
    code, out, _ = invoke(["oracle", path])
    assert code == 0
    assert out == "2\n"


def test_oracle_rejects_a_negative_limit(tmp_path):
    path = write(tmp_path, "a.sdm", "p sdm 2 2 2\ne 1 1\ne 2 2\n")
    assert invoke(["oracle", path, "--limit", "-1"]) == (2, "", "error: limit must be >= 0\n")


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


def test_lebensold_runs_one_max_flow(tmp_path, flow_runs):
    path = write(tmp_path, "k22.sdm", "p sdm 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\n")
    for k, code in ((2, 0), (3, 1)):
        flow_runs.clear()
        assert invoke(["lebensold", path, "-k", str(k)])[0] == code
        assert len(flow_runs) == 1


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
    (["--nx", "-1", "--ny", "2"], "negative vertex count: nx=-1, ny=2"),
])
def test_gen_rejects_out_of_range_values(argv, message):
    argv = ["gen", "--nx", "5", "--ny", "5", "--seed", "1"] + argv
    assert invoke(argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["gen", "--nx", str(MAX_VERTICES + 1), "--ny", "1", "--seed", "1"],
    ["gen", "--nx", "1", "--ny", str(MAX_VERTICES + 1), "--seed", "1"],
], ids=["nx", "ny"])
def test_gen_refuses_a_side_that_neither_reader_accepts(argv):
    assert invoke(argv) == (2, "", f"error: more than {MAX_VERTICES} vertices on a side\n")


def test_gen_checks_the_bound_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("random_graph was called")

    monkeypatch.setattr(sdmatch.graph, "random_graph", no_draws)
    with pytest.raises(ValueError, match=f"more than {MAX_VERTICES} vertices on a side"):
        generate_instance(10**6, 10**6, 0.0, 0, 1)


def test_gen_refuses_more_than_ten_million_pairs_before_any_draw(monkeypatch):
    def no_draws(*args):
        raise AssertionError("random_graph was called")

    monkeypatch.setattr(sdmatch.graph, "random_graph", no_draws)
    argv = ["gen", "--nx", "4000", "--ny", "4000", "--seed", "1"]
    assert invoke(argv) == (2, "", "error: more than 10000000 vertex pairs to draw\n")


def test_gen_accepts_exactly_ten_million_pairs(monkeypatch):
    drawn = []

    def no_edges(rng, nx, ny, density):
        drawn.append((nx, ny))
        return BipartiteGraph(nx, ny, ((),) * nx)

    monkeypatch.setattr(sdmatch.graph, "random_graph", no_edges)
    code, out, err = invoke(["gen", "--nx", "10000", "--ny", "1000", "--seed", "1"])
    assert (code, out, err) == (0, "c seed 1\np sdm 10000 1000 0\n", "")
    assert drawn == [(10000, 1000)]


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


def test_decode_refuses_a_pair_that_verify_rejects(tmp_path):
    # the true pair of cycle 1 alone leaves the clause gadgets x5 and x6
    # unmatched, so it is no S-pair of the reduction and decodes to nothing
    cnf = write(tmp_path, "u.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    map_path = str(tmp_path / "u.map")
    code, out, _ = invoke(["reduce-3sat", cnf, "--map", map_path])
    assert code == 0
    inst_path = write(tmp_path, "u.sdm", out)
    sol = write(tmp_path, "u.sol", "RESULT yes\nM1 1:1 2:2 3:3 4:4\nM2 1:2 3:4\n")
    assert invoke(["verify", inst_path, sol]) == (1, "INVALID m1 does not saturate X\n", "")
    assert invoke(["decode", map_path, sol]) == \
        (2, "", "error: decoded assignment does not satisfy clause 2\n")


def test_reduce_3sat_and_decode_refuse_a_gadget_above_the_vertex_bound(tmp_path):
    # 19 bytes that asked reduce-3sat for a 600 001-vertex gadget
    cnf = write(tmp_path, "f.cnf", "p cnf 300000 1\n1 0\n")
    sol = write(tmp_path, "f.sol", "RESULT yes\nM1 1:1\nM2\n")
    error = "error: line 1: the gadget would have more than 500000 vertices on a side\n"
    assert invoke(["reduce-3sat", cnf]) == (2, "", error)
    assert invoke(["decode", cnf, sol]) == (2, "", error)


def test_map_is_a_copy_of_the_cnf_and_decodes_alike(tmp_path):
    text = "c two clauses\np cnf 2 2\n1 -2 0\n2 0\n"
    cnf = write(tmp_path, "f.cnf", text)
    map_path = tmp_path / "f.map"
    code, out, _ = invoke(["reduce-3sat", cnf, "--map", str(map_path)])
    assert code == 0
    assert map_path.read_text() == text
    sol = write(tmp_path, "f.sol", invoke(["solve", write(tmp_path, "f.sdm", out)])[1])
    decoded = invoke(["decode", str(map_path), sol])
    assert decoded == invoke(["decode", cnf, sol]) == (0, "v 1 2 0\n", "")


def test_decode_refuses_an_old_map(tmp_path):
    # the m-line map that reduce-3sat --map used to write for one variable
    # and one clause
    old = write(tmp_path, "f.map", "m variable 1 cycle y1\nm clause 1 w x3 z y3\n")
    sol = write(tmp_path, "f.sol", "RESULT yes\nM1 1:1 2:2 3:3\nM2 1:2 3:1\n")
    assert invoke(["decode", old, sol]) == (2, "", "error: line 1: clause before header\n")


def test_decode_refuses_a_cnf_without_clauses(tmp_path):
    cnf = write(tmp_path, "empty.cnf", "p cnf 2 0\n")
    sol = write(tmp_path, "f.sol", "RESULT yes\nM1 1:1 2:2 3:3\nM2 1:2 3:1\n")
    assert invoke(["decode", cnf, sol]) == \
        (2, "", "error: formula has no clauses (trivially satisfiable)\n")


def test_reduce_3sat_without_map_prints_only_the_instance(tmp_path):
    cnf = write(tmp_path, "f.cnf", "p cnf 2 2\n1 -2 0\n2 0\n")
    instance = reduce_3sat_to_sdm(CnfFormula.make(2, [[1, -2], [2]]))
    code, out, err = invoke(["reduce-3sat", cnf])
    assert (code, out, err) == (0, serialize_instance(instance), "")
    assert invoke(["solve", write(tmp_path, "f.sdm", out)])[0] in (0, 1)


def test_reduce_3sat_without_clauses_is_trivially_satisfiable(tmp_path):
    cnf = write(tmp_path, "empty.cnf", "c none\np cnf 2 0\n")
    map_path = tmp_path / "empty.map"
    assert invoke(["reduce-3sat", cnf, "--map", str(map_path)]) == \
        (0, "c trivially satisfiable (no clauses); nothing to reduce\n", "")
    assert not map_path.exists()


@pytest.mark.parametrize("text, expected", [
    ("p cnf 0 0\n", (0, "c trivially satisfiable (no clauses); nothing to reduce\n", "")),
    # with no variable, a clause can only be the empty one
    ("p cnf 0 1\n0\n", (2, "", "error: empty clause\n")),
], ids=["no-clause", "empty-clause"])
def test_reduce_3sat_without_variables(tmp_path, text, expected):
    assert invoke(["reduce-3sat", write(tmp_path, "f.cnf", text)]) == expected


def test_verify_and_decode_on_a_no_answer(tmp_path):
    inst = write(tmp_path, "i.sdm", "p sdm 1 1 1\ne 1 1\ns 1\n")
    sol = write(tmp_path, "no.sol", "c method PolyLargeS\nRESULT no\n")
    cnf = write(tmp_path, "f.cnf", "p cnf 1 1\n1 0\n")
    assert invoke(["verify", inst, sol]) == (0, "VALID no certificate to verify\n", "")
    assert invoke(["decode", cnf, sol]) == (1, "c RESULT no: nothing to decode\n", "")


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


def test_reduce_dm_writes_its_graphs_as_it_builds_them(tmp_path):
    """With S empty, G2 of a 400-link chain is complete: 160 000 e lines,
    written piece by piece rather than held as one text, which peaked at
    20.8 MB."""
    path = write(tmp_path, "chain.sdm", serialize_instance(SdmInstance.make(chain_graph(400), [])))
    g1, g2 = tmp_path / "g1.sdm", tmp_path / "g2.sdm"
    tracemalloc.start()
    try:
        result = invoke(["reduce-dm", path, "--g1", str(g1), "--g2", str(g2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (0, "", "")
    assert peak < 12 * 2**20
    assert g1.read_text() == Path(path).read_text()
    assert g2.read_bytes() == b"p sdm 400 400 160000\n" + b"".join(
        b"e %d %d\n" % (x, y) for x in range(1, 401) for y in range(1, 401))
    # without --g1 and --g2 the same pieces go to stdout
    assert invoke(["reduce-dm", path]) == (
        0, "c G1\n" + g1.read_text() + "c G2\n" + g2.read_text(), "")


def test_unknown_flag_exits_2():
    code, _, err = invoke(["solve", "--nope"])
    assert code == 2
    assert "error:" in err


def test_unreadable_file_exits_2():
    code, _, err = invoke(["solve", "/does/not/exist"])
    assert code == 2
    assert "error:" in err


def text_mode(path):
    """The reference reader: the text mode that `_read` replaces."""
    with open(path, encoding="ascii") as handle:
        return handle.read()


# about 80 KB, past text mode's 64 KiB read size; line ends fall at every
# offset of its 8 KiB buffers, so some CRLF pairs straddle a boundary
BIG_LINES = [f"c {'x' * (i % 97)}" for i in range(1600)]
LINE_ENDS = ["\n", "\r\n", "\r", "\r\r\n"]


@pytest.mark.parametrize("data", [
    b"p sdm 1 1 1\ne 1 1\ns 1\n",
    b"p sdm 1 1 1\r\ne 1 1\r\ns 1\r\n",
    b"p sdm 1 1 1\re 1 1\rs 1\r",
    b"p sdm 1 1 1\r\r\ne 1 1\n\rs 1\r\n\r",
    "\n".join(BIG_LINES).encode(),
    "\r\n".join(BIG_LINES).encode(),
    "".join(line + LINE_ENDS[i % 4] for i, line in enumerate(BIG_LINES)).encode(),
], ids=["lf", "crlf", "cr", "mixed", "big-lf", "big-crlf", "big-mixed"])
def test_read_gives_what_text_mode_reads(tmp_path, data):
    import sdmatch.cli as cli

    path = tmp_path / "f"
    path.write_bytes(data)
    assert cli._read(str(path)) == text_mode(path)


@pytest.mark.parametrize("case", ["non-ascii-first-line", "non-ascii-past-64k", "directory",
                                  "missing"])
def test_unreadable_file_gives_text_modes_error(tmp_path, case):
    path = tmp_path / "f"
    if case == "directory":
        path.mkdir()
    elif case != "missing":
        data = bytearray("\n".join(BIG_LINES).encode())
        data[5 if case == "non-ascii-first-line" else 70000] = 0xE9
        path.write_bytes(data)
    try:
        text_mode(path)
    except OSError as exc:
        message = f"cannot read {path}: {exc}"
    except UnicodeDecodeError as exc:
        message = str(exc)
    assert invoke(["solve", str(path)]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_map_holds_the_bytes_text_mode_wrote(tmp_path, end):
    cnf = tmp_path / "f.cnf"
    cnf.write_bytes(f"c two clauses{end}p cnf 3 2{end}1 -2 3 0{end}-1 2 3 0{end}".encode())
    reference, written = tmp_path / "reference.map", tmp_path / "f.map"
    with open(reference, "w", encoding="ascii") as handle:
        handle.write(text_mode(cnf))
    assert invoke(["reduce-3sat", str(cnf), "--map", str(written)])[0] == 0
    assert written.read_bytes() == reference.read_bytes()


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


def test_reduce_dm_refuses_one_file_for_both_graphs(tmp_path):
    path = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    same = str(tmp_path / "g.sdm")
    code, out, err = invoke(["reduce-dm", path, "--g1", same, "--g2", same])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {same}: ")
    assert not os.path.lexists(same)
    # a symlink to the other path names the same file
    target = tmp_path / "a.sdm"
    target.write_bytes(b"old contents\n")
    link = tmp_path / "b.sdm"
    link.symlink_to(target)
    code, out, err = invoke(["reduce-dm", path, "--g1", str(target), "--g2", str(link)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {link}: ")
    assert target.read_bytes() == b"old contents\n" and link.is_symlink()



def test_reduce_dm_refuses_two_hard_links_to_one_file(tmp_path):
    path = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    target, link = tmp_path / "a.sdm", tmp_path / "b.sdm"
    target.write_bytes(b"old contents\n")
    os.link(target, link)
    code, out, err = invoke(["reduce-dm", path, "--g1", str(target), "--g2", str(link)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {link}: same file as {target}")
    assert target.read_bytes() == b"old contents\n" and os.path.samefile(target, link)


def test_reduce_dm_writes_an_existing_file_in_a_read_only_directory(tmp_path, monkeypatch):
    """Only a file that does not exist yet needs a writable directory. Root
    passes every access check, so the directory is denied by a stand-in."""
    import sdmatch.cli as cli

    path = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    locked = tmp_path / "locked"
    locked.mkdir()
    g1, g2 = locked / "a.sdm", tmp_path / "b.sdm"
    g1.write_bytes(b"old contents\n")

    access = os.access

    def access_denying_locked(name, mode):
        return os.path.realpath(name) != str(locked) and access(name, mode)

    monkeypatch.setattr(cli.os, "access", access_denying_locked)
    code, out, err = invoke(["reduce-dm", path, "--g1", str(g1), "--g2", str(g2)])
    assert (code, out, err) == (0, "", "")
    assert g1.read_bytes() != b"old contents\n" and g2.exists()
    # a new file in that directory is still refused, and nothing is written
    g3 = locked / "c.sdm"
    code, out, err = invoke(["reduce-dm", path, "--g1", str(g3), "--g2", str(g2)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {g3}: file or its directory not writable")
    assert not g3.exists()

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


def test_solve_rejects_a_negative_budget(tmp_path):
    paths = {s: write(tmp_path, f"k1212-s{s}.sdm", complete_instance(12, 12, s))
             for s in (0, 8, 9, 11)}
    # on every route: S empty, BoundedS, ExactBacktrack and PolyLargeS
    for path in paths.values():
        assert invoke(["solve", path, "--budget", "-5"]) == (2, "", "error: budget must be >= 0\n")
    # a budget of 0 is no error: the empty S answers from the Hall pre-check
    assert invoke(["solve", paths[0], "--budget", "0"])[0] == 0


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
    path = write(tmp_path, "c8.sdm", C8_TEXT)
    code, out, err = invoke(["solve", path])
    assert code == 2
    assert "RESULT" not in out
    assert err.startswith("error: internal: RuntimeError: boom\n")
    assert "Traceback" in err


def test_keyboard_interrupt_propagates(tmp_path, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("sdmatch.cli.solve_instance", interrupt)
    path = write(tmp_path, "c8.sdm", C8_TEXT)
    with pytest.raises(KeyboardInterrupt):
        invoke(["solve", path])


def cli_env():
    """The environment for a `python -m sdmatch.cli` subprocess of this checkout."""
    src = str(Path(sdmatch.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_2_without_traceback(tmp_path):
    path = write(tmp_path, "c8.sdm", C8_TEXT)
    err = io.StringIO()
    assert run(["solve", path], stdout=ClosedPipe(), stderr=err) == 2
    assert "Traceback" not in err.getvalue()
    assert "internal" not in err.getvalue()


@pytest.mark.parametrize("text", [
    C8_TEXT,  # output stays buffered until main() flushes it
    serialize_instance(SdmInstance.make(chain_graph(1500), [])),  # a write inside run() fails
])
def test_main_on_closed_pipe_is_quiet(tmp_path, text):
    path = write(tmp_path, "i.sdm", text)
    env = cli_env()
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


def test_a_budget_does_not_stick_to_the_next_call(tmp_path):
    path = write(tmp_path, "k1212.sdm", complete_instance(12, 12, 8))
    assert invoke(["solve", path, "--budget", "1"]) == (3, "c step budget 1 exhausted\n", "")
    code, out, err = invoke(["solve", path])
    assert (code, err) == (0, "")
    assert out.startswith("c method BoundedS\nRESULT yes\n")


COMMANDS = ["solve", "verify", "lebensold", "reduce-3sat", "decode", "reduce-dm", "gen", "oracle"]
CHOICES = ", ".join(map(repr, COMMANDS))


# argv -> (exit code, stderr), with stderr worded as argparse words it. In
# the working directory, g is K12,12 with |S| = 8 (exit 3 on --budget 1, else
# 0), k22 is K2,2 (-k 2 holds, -k 3 is violated), -x is C8 (yes) and -5 is
# one edge with S = X (no).
@pytest.mark.parametrize("argv, expected", [
    ([], (2, "error: the following arguments are required: command\n")),
    (["x"], (2, f"error: argument command: invalid choice: 'x' (choose from {CHOICES})\n")),
    (["--", "solve", "g"], (2, f"error: argument command: invalid choice: '--' (choose from {CHOICES})\n")),
    (["solve"], (2, "error: the following arguments are required: instance\n")),
    (["solve", "--nope"], (2, "error: the following arguments are required: instance\n")),
    (["lebensold", "g.sdm"], (2, "error: the following arguments are required: -k\n")),
    (["gen", "--nx", "5"], (2, "error: the following arguments are required: --ny, --seed\n")),
    (["lebensold", "g", "-k"], (2, "error: argument -k: expected one argument\n")),
    (["solve", "g", "--budget", "--nope"], (2, "error: argument --budget: expected one argument\n")),
    (["lebensold", "g", "-k", "two"], (2, "error: argument -k: invalid int value: 'two'\n")),
    (["gen", "--nx", "5", "--ny", "5", "--seed", "1", "--density", "x"],
     (2, "error: argument --density: invalid float value: 'x'\n")),
    (["solve", "g", "extra"], (2, "error: unrecognized arguments: extra\n")),
    (["--nope", "solve", "g", "--bad"], (2, "error: unrecognized arguments: --nope --bad\n")),
    (["reduce-dm", "g", "--g", "3"], (2, "error: ambiguous option: --g could match --g1, --g2\n")),
    # every token is read before a value is checked, and a value before -h
    (["gen", "--nx", "two", "--n", "3"], (2, "error: ambiguous option: --n could match --nx, --ny\n")),
    (["solve", "g", "--budget", "two", "-h"], (2, "error: argument --budget: invalid int value: 'two'\n")),
    (["solve", "g", "--budget=1"], (3, "")),
    (["solve", "g", "--bud", "1"], (3, "")),
    (["lebensold", "k22", "-k3"], (1, "")),
    (["lebensold", "k22", "-k=2"], (0, "")),
    (["lebensold", "-k", "2", "k22"], (0, "")),
    (["solve", "--", "-x"], (0, "")),
    (["solve", "-5"], (1, "")),
    (["solve", "g", "--budget", "-5"], (2, "error: budget must be >= 0\n")),
    (["solve", "g", "--budget", "1", "--budget", "100000"], (0, "")),
    (["solve", "g", "--budget", "100000", "--budget", "1"], (3, "")),
    # the value -- is read, and refused, as its token is read
    (["solve", "--budget=--"], (2, "error: argument --budget: invalid int value: '--'\n")),
    (["lebensold", "g", "-k--"], (2, "error: argument -k: invalid int value: '--'\n")),
    (["solve", "-", "--budget=--", "--budget=3"],
     (2, "error: argument --budget: invalid int value: '--'\n")),
    # a final -- is dropped only beside a positional
    (["solve", "g", "--budget=1", "--"], (2, "error: unrecognized arguments: --\n")),
])
def test_argv_corpus(tmp_path, monkeypatch, argv, expected):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "g", complete_instance(12, 12, 8))
    write(tmp_path, "k22", "p sdm 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\n")
    write(tmp_path, "-x", C8_TEXT)
    write(tmp_path, "-5", "p sdm 1 1 1\ne 1 1\ns 1\n")
    for _ in range(3):  # no call leaves anything behind for the next
        code, _, err = invoke(argv)
        assert (code, err) == expected


def test_a_double_dash_value_is_a_path(tmp_path, monkeypatch):
    # `--` given with `=`, or a second `--` after the one that ends the
    # options, is a value like any other word
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "g", C8_TEXT)
    write(tmp_path, "--", "RESULT no\n")
    assert invoke(["verify", "--", "g", "--"]) == (0, "VALID no certificate to verify\n", "")
    write(tmp_path, "f.cnf", "p cnf 1 1\n1 0\n")
    assert invoke(["reduce-3sat", "f.cnf", "--map=--"])[0] == 0
    assert (tmp_path / "--").read_text() == "p cnf 1 1\n1 0\n"
    assert invoke(["solve", "g", "--budget=--"]) == (
        2, "", "error: argument --budget: invalid int value: '--'\n")


def test_plain_reader_reads_as_argparse_does():
    # argparse is the reference of the plain reader: wherever the plain
    # reader returns a value, the argparse parser returns the same one
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    values = st.sampled_from(["3", "g", "0.5", "", "-5", "--"])
    others = st.sampled_from(["--", "-", "-5", "two", "-k3", "-k--", "-k=2", "-k", "--bud", "--g",
                              "--nope", "--budget=--", "-h", "--help"])
    read = []

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        # shuffled groups: a value per positional, the command's options as
        # the flag and its value or as flag=value, and at most one word
        # outside that form: a prefix, another command's flag, -h
        command = data.draw(st.sampled_from(COMMANDS))
        _, positionals, options, _ = _COMMANDS[command]
        groups = [[data.draw(values)] for _ in positionals]
        flags = st.lists(st.sampled_from(list(options)), max_size=4) if options else st.just([])
        for flag in data.draw(flags):
            value = data.draw(values)
            groups.append(data.draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
        groups += [[word] for word in data.draw(st.lists(others, max_size=1))]
        argv = [command, *chain(*data.draw(st.permutations(groups)))]
        plain = _parse_plain_argv(argv)
        if plain is not None:
            read.append(argv)
            assert vars(plain) == vars(_parse_by_argparse(argv))

    check()
    assert len(read) > 50


@pytest.mark.parametrize("argv", [[flag] for flag in ("-h", "--help")] + [
    [command, flag] for command in COMMANDS for flag in ("-h", "--help")])
def test_help_goes_to_stdout_and_returns_0(argv):
    for _ in range(3):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        if len(argv) == 1:
            assert all(f"\n  sdmatch {command} " in out for command in COMMANDS)
        else:
            assert out.startswith(f"usage: sdmatch {argv[0]} ")


def mixed_commands(tmp_path):
    """Commands of every subcommand, among them usage and input errors."""
    c8 = write(tmp_path, "c8.sdm", C8_TEXT)
    one = write(tmp_path, "e.sdm", "p sdm 1 1 1\ne 1 1\ns 1\n")
    k1212 = write(tmp_path, "k1212.sdm", complete_instance(12, 12, 8))
    k22 = write(tmp_path, "k22.sdm", "p sdm 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\n")
    small_s = write(tmp_path, "i.sdm", "p sdm 3 3 1\ne 1 1\ns 1\n")
    star = write(tmp_path, "star.sdm", "p sdm 2 1 2\ne 1 1\ne 2 1\n")
    bad = write(tmp_path, "bad.sdm", "p sdm 1 1 0\nz 1\n")
    c8_sol = write(tmp_path, "c8.sol", "RESULT yes\nM1 1:2 2:3 3:4 4:1\nM2 1:1 3:3\n")
    bad_sol = write(tmp_path, "bad.sol", "RESULT yes\nM1 1:1\nM2 1:1\n")
    no_sol = write(tmp_path, "no.sol", "c method PolyLargeS\nRESULT no\n")
    instance = reduce_3sat_to_sdm(CnfFormula.make(3, [[1, -2, 3], [-1, 2, 3]]))
    cnf = write(tmp_path, "f.cnf", "p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n")
    unsat = write(tmp_path, "u.cnf", "p cnf 1 2\n1 0\n-1 0\n")
    empty = write(tmp_path, "empty.cnf", "p cnf 2 0\n")
    f_sol = write(tmp_path, "f.sol", serialize_solution(solve(instance).spair))
    missing = str(tmp_path / "missing")
    out = str(tmp_path / "out")
    return [
        ["solve", c8], ["solve", one], ["solve", k1212, "--budget", "1"], ["solve", k1212],
        ["solve", k1212, "--budget", "-5"], ["solve"], ["solve", "--nope"],
        ["solve", missing], ["solve", bad], ["solve", c8, "extra"],
        ["verify", c8, c8_sol], ["verify", one, bad_sol], ["verify", one, no_sol], ["verify", c8],
        ["lebensold", k22, "-k", "2"], ["lebensold", k22, "-k", "3"], ["lebensold", star, "-k", "1"],
        ["lebensold", k22], ["lebensold", k22, "-k", "two"],
        ["reduce-3sat", cnf], ["reduce-3sat", cnf, "--map", out + ".map"],
        ["reduce-3sat", unsat], ["reduce-3sat", empty],
        ["reduce-3sat", cnf, "--map", missing + "/f.map"],
        ["decode", cnf, f_sol], ["decode", cnf, no_sol], ["decode", cnf],
        ["decode", unsat, f_sol], ["decode", empty, f_sol],
        ["reduce-dm", small_s], ["reduce-dm", one],
        ["reduce-dm", small_s, "--g1", out + ".g1", "--g2", out + ".g2"],
        ["reduce-dm", small_s, "--g1", out + ".g1", "--g2", missing + "/b.sdm"],
        ["reduce-dm", small_s, "--g1", out + ".g", "--g2", out + ".g"],
        ["gen", "--nx", "5", "--ny", "5", "--seed", "7", "--s-size", "2"],
        ["gen", "--nx", "5", "--ny", "5", "--density", "0.6", "--s-size", "2", "--seed", "99"],
        ["gen", "--nx", "-1", "--ny", "2", "--seed", "1"],
        ["gen", "--nx", "5", "--ny", "5", "--seed", "1", "--density", "2"], ["gen", "--nx", "5"],
        ["oracle", c8], ["oracle", c8, "--limit", "-1"], ["oracle", c8, "--limit", "3"],
        [], ["nope"], ["solve", c8], ["--help"], ["oracle", "-h"],
    ]


def test_run_in_one_process_matches_fresh_processes(tmp_path):
    commands = mixed_commands(tmp_path)
    in_process = [invoke(argv) for argv in commands]
    assert {code for code, _, _ in in_process} == {0, 1, 2, 3}
    env = cli_env()
    for argv, got in zip(commands, in_process):
        proc = subprocess.run([sys.executable, "-m", "sdmatch.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        assert got == (proc.returncode, proc.stdout.decode(), proc.stderr.decode()), argv


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The caller's cyclic collector state, set for the test and restored
    after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_run_restores_the_collector_on_every_exit(tmp_path, monkeypatch, collector):
    c8 = write(tmp_path, "c8.sdm", C8_TEXT)
    one = write(tmp_path, "e.sdm", "p sdm 1 1 1\ne 1 1\ns 1\n")
    cases = [
        (["solve", c8], 0), (["solve", one], 1),
        (["solve", str(tmp_path / "missing")], 2),  # _CliError
        (["solve", c8, "--budget", "-1"], 2),  # ValueError
        (["solve", c8, "-h"], 0), (["solve", "--nope"], 2),  # argparse's help and error
    ]
    for argv, expected in cases:
        assert invoke(argv)[0] == expected, argv
        assert gc.isenabled() is collector, argv

    def crash(args, out):
        raise RuntimeError("boom")

    def interrupt(args, out):
        raise KeyboardInterrupt

    monkeypatch.setitem(_COMMANDS, "solve", (crash, *_COMMANDS["solve"][1:]))
    code, _, err = invoke(["solve", c8])
    assert (code, err.startswith("error: internal: RuntimeError: boom\n")) == (2, True)
    assert gc.isenabled() is collector
    monkeypatch.setitem(_COMMANDS, "solve", (interrupt, *_COMMANDS["solve"][1:]))
    with pytest.raises(KeyboardInterrupt):
        invoke(["solve", c8])
    assert gc.isenabled() is collector


def test_a_command_runs_with_the_collector_paused(tmp_path, monkeypatch, collector):
    seen = []

    def handler(args, out):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setitem(_COMMANDS, "solve", (handler, *_COMMANDS["solve"][1:]))
    assert invoke(["solve", write(tmp_path, "c8.sdm", C8_TEXT)])[0] == 0
    assert seen == [False]
    assert gc.isenabled() is collector


@pytest.mark.parametrize("collector", [False], indirect=True)
def test_plain_commands_make_no_reference_cycles(tmp_path, collector):
    """run pauses the cyclic collector, so a cycle that a command built would
    wait until run returns. Each of the eight commands, in the plain argv
    form, frees all it allocates by reference counting alone. argparse's
    help and error paths are left out: its parser leaves about 300 cyclic
    objects, which the first collection after run frees."""
    c8 = write(tmp_path, "c8.sdm", C8_TEXT)
    one = write(tmp_path, "e.sdm", "p sdm 1 1 1\ne 1 1\ns 1\n")
    k22 = write(tmp_path, "k22.sdm", "p sdm 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\n")
    bad = write(tmp_path, "bad.sdm", "p sdm 1 1 0\nz 1\n")
    c8_sol = write(tmp_path, "c8.sol", "RESULT yes\nM1 1:2 2:3 3:4 4:1\nM2 1:1 3:3\n")
    cnf = write(tmp_path, "f.cnf", "p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n")
    f_sol = write(tmp_path, "f.sol", serialize_solution(
        solve(reduce_3sat_to_sdm(CnfFormula.make(3, [[1, -2, 3], [-1, 2, 3]]))).spair))
    out = str(tmp_path / "out")
    commands = [
        (["solve", c8], 0), (["solve", one], 1), (["solve", bad], 2),
        (["solve", str(tmp_path / "missing")], 2),
        (["verify", c8, c8_sol], 0), (["lebensold", k22, "-k", "2"], 0),
        (["reduce-3sat", cnf, "--map", out + ".map"], 0), (["decode", cnf, f_sol], 0),
        (["reduce-dm", c8, "--g1", out + ".g1", "--g2", out + ".g2"], 0),
        (["gen", "--nx", "5", "--ny", "5", "--seed", "7", "--s-size", "2"], 0),
        (["oracle", c8], 0),
    ]
    assert {argv[0] for argv, _ in commands} == set(COMMANDS)
    for argv, expected in commands:
        assert _parse_plain_argv(argv) is not None, argv
        gc.collect()
        assert invoke(argv)[0] == expected, argv
        assert gc.collect() == 0, argv
