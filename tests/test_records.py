"""The records of the package: what importing it loads, and the repr,
immutability, equality and hash each record keeps."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdmatch
from sdmatch import (
    BipartiteGraph,
    CnfFormula,
    DmInstance,
    LebensoldVerdict,
    Matching,
    Method,
    SdmInstance,
    SolveOutcome,
    SPair,
)


def test_import_loads_no_dataclasses_inspect_or_traceback():
    src = str(Path(sdmatch.__file__).resolve().parents[1])
    probe = ("import sys, sdmatch.cli\n"
             "print(*sorted({'argparse', 'dataclasses', 'gettext', 'inspect', 'random',"
             " 'traceback'}"
             " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_plain_argv_loads_no_argparse_or_gettext(tmp_path):
    # the commands the benchmark runs read their argv without argparse
    src = str(Path(sdmatch.__file__).resolve().parents[1])
    (tmp_path / "g.sdm").write_text("p sdm 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\ns 1\n")
    (tmp_path / "f.cnf").write_text("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n")
    probe = ("import io, sys, sdmatch.cli\n"
             "def run(*argv):\n"
             "    out = io.StringIO()\n"
             "    code = sdmatch.cli.run(list(argv), out, sys.stderr)\n"
             "    return code, out.getvalue()\n"
             "run('solve', 'g.sdm')\n"
             "run('lebensold', 'g.sdm', '-k', '2')\n"
             "code, text = run('reduce-3sat', 'f.cnf', '--map', 'f.map')\n"
             "open('f.sdm', 'w').write(text)\n"
             "code, text = run('solve', 'f.sdm')\n"
             "open('f.sol', 'w').write(text)\n"
             "print(run('decode', 'f.map', 'f.sol')[0])\n"
             "print(*sorted({'argparse', 'gettext'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n\n", "")


def graph():
    return BipartiteGraph.from_edges(2, 2, [(0, 0), (1, 1), (0, 1)])


def matching():
    return Matching.from_edges([(1, 1), (0, 0)])


G_REPR = "BipartiteGraph(nx=2, ny=2, adj=((0, 1), (1,)))"
M_REPR = "Matching(edges=((0, 0), (1, 1)))"
RECORDS = {
    "BipartiteGraph": (graph, G_REPR),
    "Matching": (matching, M_REPR),
    "SdmInstance": (lambda: SdmInstance.make(graph(), [1, 0, 1]),
                    f"SdmInstance(graph={G_REPR}, s_set=(0, 1))"),
    "SPair": (lambda: SPair(matching(), Matching.from_edges([(0, 1)])),
              f"SPair(m1={M_REPR}, m2=Matching(edges=((0, 1),)))"),
    "DmInstance": (lambda: DmInstance(graph(), graph()),
                   f"DmInstance(g1={G_REPR}, g2={G_REPR})"),
    "LebensoldVerdict": (lambda: LebensoldVerdict(False, (0,)),
                         "LebensoldVerdict(holds=False, violating_set=(0,), matchings=None)"),
    "CnfFormula": (lambda: CnfFormula.make(2, [[1, -2, 1], [2]]),
                   "CnfFormula(num_vars=2, clauses=((1, -2), (2,)))"),
    "SolveOutcome": (lambda: SolveOutcome(None, Method.BOUNDED_S),
                     "SolveOutcome(spair=None, method=<Method.BOUNDED_S: 'BoundedS'>)"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_immutability_equality_and_hash(name):
    make, text = RECORDS[name]
    record, twin = make(), make()
    assert type(record).__name__ == name and repr(record) == text
    assert record is not twin and record == twin and hash(record) == hash(twin)
    for attr in (record._fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    assert record == twin


def test_matching_length_is_its_edge_count():
    assert len(matching()) == 2 and len(Matching(())) == 0 and not Matching(())


def test_dm_instance_refuses_mismatched_shapes():
    with pytest.raises(ValueError, match="g1 and g2 must share nx and ny"):
        DmInstance(graph(), BipartiteGraph.from_edges(2, 3, []))
