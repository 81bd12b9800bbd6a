"""A fuzz property over the seven commands that read files (solve, verify,
lebensold, reduce-3sat, decode, reduce-dm, oracle), run in process on
mutated valid inputs: lines deleted, duplicated or shuffled, a token
changed, CRLF line ends, truncation. No run may crash (`error: internal`) or
exit outside 0-3, and a certificate behind exit 0 must check: a solve "yes"
passes `verify_spair`, a decoded assignment satisfies the formula, and the
k matchings of a Lebensold `HOLDS` are disjoint and saturate X.

The examples are derandomized, so every run tries the same inputs."""

import io
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sdmatch import (CnfFormula, is_matching, parse_dimacs_cnf, parse_instance,  # noqa: E402
                     parse_solution, reduce_3sat_to_sdm, serialize_instance,
                     serialize_solution, solve, verify_spair)
from sdmatch.cli import generate_instance, run  # noqa: E402
from conftest import c8_cycle, satisfies  # noqa: E402

INSTANCES = [c8_cycle()[0],
             *(generate_instance(4, 4, 0.6, s, seed) for s, seed in ((0, 1), (2, 2), (3, 3))),
             parse_instance("p sdm 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\n"),
             parse_instance("p sdm 2 1 2\ne 1 1\ne 2 1\ns 1\n")]
FORMULAS = [CnfFormula.make(3, [[1, -2, 3], [-1, 2, 3]]), CnfFormula.make(1, [[1], [-1]]),
            CnfFormula.make(2, [[1, -2], [2]]), CnfFormula.make(2, [[-1, -2], [-2]])]


def cnf_text(formula):
    return f"p cnf {formula.num_vars} {len(formula.clauses)}\n" + "".join(
        " ".join(map(str, clause)) + " 0\n" for clause in formula.clauses)


# a command reads the files of one case: each instance with the solution
# solve gives on it, and each formula with each solution solve gives on a
# reduced formula, or the true pair of the one-variable cycle alone, which
# is no S-pair of a reduction
INSTANCE_CASES = [(serialize_instance(i), serialize_solution(solve(i).spair)) for i in INSTANCES]
CNF_SOLUTIONS = [serialize_solution(solve(reduce_3sat_to_sdm(f)).spair) for f in FORMULAS]
CNF_CASES = [(cnf, solution)
             for cnf in [cnf_text(f) for f in FORMULAS] + ["c no clauses\np cnf 2 0\n"]
             for solution in CNF_SOLUTIONS + ["RESULT yes\nM1 1:1 2:2 3:3 4:4\nM2 1:2 3:4\n"]]
# the values a changed token takes; numbers stay small, since the instance
# reader allocates memory for every vertex its header names
TOKENS = ["0", "1", "2", "3", "9", "-1", "x", "p", "e", "s", "c", "cnf", "sdm",
          "1:1", "2:1", "M1", "M2", "RESULT", "yes", "no"]


@st.composite
def mutated(draw, text):
    """The text after up to three mutations, none in about one case of three."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        lines = text.splitlines(keepends=True)
        kind = draw(st.sampled_from(["delete", "duplicate", "shuffle", "token", "crlf",
                                     "truncate"]))
        if kind == "crlf":
            text = text.replace("\n", "\r\n")
        elif kind == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
        elif kind == "shuffle":
            text = "".join(draw(st.permutations(lines)))
        elif lines:
            i = draw(st.integers(0, len(lines) - 1))
            if kind == "delete":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            elif lines[i].split():
                tokens = lines[i].split()
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
                lines[i] = " ".join(tokens) + "\n"
            text = "".join(lines)
    return text


# command -> (its cases, how many files of a case it reads, its option sets)
COMMANDS = {
    "solve": (INSTANCE_CASES, 1, [[], ["--budget", "2"], ["--budget", "-1"]]),
    "verify": (INSTANCE_CASES, 2, [[]]),
    "lebensold": (INSTANCE_CASES, 1, [["-k", k] for k in ("-1", "0", "1", "2", "3")]),
    "reduce-3sat": (CNF_CASES, 1, [[], ["--map", "{work}/out.map"]]),
    "decode": (CNF_CASES, 2, [[]]),
    "reduce-dm": (INSTANCE_CASES, 1, [[], ["--g1", "{work}/out.g1", "--g2", "{work}/out.g2"]]),
    "oracle": (INSTANCE_CASES, 1, [[], ["--limit", "4"]]),
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check_certificate(command, texts, options, out, work):
    """Check what a command that exited 0 printed or wrote."""
    if command == "solve":
        spair = parse_solution(out)
        assert spair is not None and verify_spair(parse_instance(texts[0]), spair)[0]
    elif command == "verify":
        assert out.startswith("VALID ")
    elif command == "lebensold":
        graph = parse_instance(texts[0]).graph
        head, *lines = out.splitlines()
        assert head == "HOLDS" and len(lines) == int(options[1])
        edges = [[tuple(int(v) - 1 for v in tok.split(":")) for tok in line.split()[1:]]
                 for line in lines]
        for matching in edges:
            assert is_matching(graph, matching)
            assert sorted(x for x, _ in matching) == list(range(graph.nx))
        assert len(set().union(*map(set, edges))) == sum(map(len, edges))
    elif command == "reduce-3sat":
        if parse_dimacs_cnf(texts[0]).clauses:
            parse_instance(out)
            if options:
                assert (work / "out.map").read_text() == texts[0]
    elif command == "decode":
        formula = parse_dimacs_cnf(texts[0])
        assert out.startswith("v ") and out.endswith(" 0\n")
        lits = [int(tok) for tok in out.split()[1:-1]]
        assert [abs(lit) for lit in lits] == list(range(1, formula.num_vars + 1))
        assert satisfies(formula, {abs(lit): lit > 0 for lit in lits})
    elif command == "reduce-dm" and not options:
        g1, g2 = out.removeprefix("c G1\n").split("c G2\n")
        parse_instance(g1), parse_instance(g2)
    elif command == "oracle":
        assert int(out) >= 0


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_inputs_never_crash_and_every_yes_checks(command, work, data):
    cases, files, option_sets = COMMANDS[command]
    paths = []
    for n, text in enumerate(data.draw(st.sampled_from(cases))[:files]):
        path = work / f"in{n}"
        path.write_text(data.draw(mutated(text)))
        paths.append(str(path))
    options = [opt.format(work=work) for opt in data.draw(st.sampled_from(option_sets))]
    out, err = io.StringIO(), io.StringIO()
    code = run([command, *paths, *options], stdout=out, stderr=err)
    assert "error: internal" not in err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 0:
        # read back as the command read it: `cli._read` turns CRLF into LF,
        # as text mode does
        texts = [Path(path).read_text() for path in paths]
        check_certificate(command, texts, options, out.getvalue(), work)
