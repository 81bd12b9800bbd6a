"""`parse_instance` against the reference two-pass parser in conftest.

On every input the parser must return the same `SdmInstance` as
`conftest.reference_parse_instance`, or raise the same exception type with
the same message: one input per error branch, then seeded mixes of p, e, s
and comment lines with blank lines, CRLF endings, duplicate edges and
out-of-range, negative and non-integer values. Then the plain form that
`serialize_instance` writes, which `parse_instance` reads in bulk: it must
never reach the line reader, must hand over every plain text that fails a
check, and must peak well below the line reader's memory.
"""

import random
import tracemalloc

import pytest

from sdmatch import (BipartiteGraph, FormatError, SdmInstance, graph, parse_instance,
                     serialize_instance)
from sdmatch.graph import random_graph
from conftest import chain_graph, reference_parse_instance

# the phrase of each error the parser can raise -> one input that raises it
ERROR_CASES = {
    "duplicate problem line": "p sdm 1 1 0\np sdm 1 1 0\n",
    "malformed problem line": "p sdm 1 1\n",
    "non-integer counts": "p sdm 1 x 0\n",
    "edge before problem line": "e 1 1\np sdm 1 1 1\n",
    "malformed edge line": "p sdm 1 1 1\ne 1 1 1\n",
    "non-integer endpoint": "p sdm 1 1 1\ne 1 y\n",
    "endpoint out of range": "p sdm 1 1 1\ne 2 1\n",
    "s line before problem line": "s 1\np sdm 1 1 0\n",
    "duplicate s line": "p sdm 1 1 0\ns 1\ns 1\n",
    "non-integer S member": "p sdm 1 1 0\ns one\n",
    "out of range\n": "p sdm 1 1 0\ns 2\n",  # "S member 2 out of range"
    "unknown directive": "p sdm 1 1 0\nq 1\n",
    "missing problem line": "c only a comment\n",
    "edge count mismatch": "p sdm 2 2 2\ne 1 1\n",
    "negative vertex count": "p sdm -1 2 0\n",
}

COMMENTS = ["c", "c hello", "cx 1 2", "comment e 1 1", "c\tp sdm 9 9 9", "cc"]
BLANKS = ["", "   ", "\t", " \t "]
JUNK = ["z 1", "E 1 1", "P sdm 1 1 0", "x", "s1", "e1 1", "-"]
BAD_NUMBERS = ["0", "-1", "x", "1.5", "", "99"]


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:  # FormatError included
        return type(exc), str(exc)


def phrase_of(result):
    if isinstance(result, SdmInstance):
        return "ok"
    message = result[1] + "\n"
    return next(p for p in ERROR_CASES if p in message)


def number(rng, hi, noise):
    if rng.random() < noise:
        return rng.choice(BAD_NUMBERS + [str(hi + 1)])
    return str(rng.randint(1, max(hi, 1)))


def random_text(rng):
    """A seeded line mix; at noise 0 it is a valid instance unless an empty
    side meets an edge line."""
    noise = rng.choice((0.0, 0.0, 0.03, 0.1, 0.3))
    nx, ny = rng.randint(-1 if noise else 0, 6), rng.randint(-1 if noise else 0, 6)
    body = []
    edge_lines = []
    has_s = False
    for _ in range(rng.randint(0, 12)):
        r = rng.random()
        if r < 0.55:
            if edge_lines and rng.random() < 0.2:
                line = rng.choice(edge_lines)  # a duplicate edge
            elif rng.random() < noise:
                line = rng.choice(["e", "e 1", "e 1 2 3"])
            else:
                line = f"e {number(rng, nx, noise)} {number(rng, ny, noise)}"
            edge_lines.append(line)
        elif r < 0.65 and (not has_s or rng.random() < 3 * noise):
            line = "s " + " ".join(number(rng, nx, noise) for _ in range(rng.randint(0, 3)))
            has_s = True
        elif r < 0.9 and rng.random() < noise:
            line = rng.choice(JUNK)
        else:
            line = rng.choice(COMMENTS + BLANKS)
        if rng.random() < 0.2:
            line = rng.choice(BLANKS) + line + rng.choice(BLANKS)
        body.append(line)
    m = len(edge_lines)
    if rng.random() < noise:
        m += rng.choice((-1, 1))
    header = f"p sdm {nx} {ny} {m}"
    if rng.random() < noise:
        header = rng.choice(["p sdm 1 1", "p xdm 1 1 0", f"p sdm a {ny} {m}"])
    # the p line goes before every e and s line, or anywhere under noise
    first = next((i for i, ln in enumerate(body) if ln.split()[:1] in (["e"], ["s"])),
                 len(body))
    lines = list(body)
    for _ in range(2 if rng.random() < noise else 1):
        lines.insert(rng.randint(0, len(body) if rng.random() < noise else first), header)
    if rng.random() < noise / 3:
        lines.remove(header)
    ending = rng.choice(("\n", "\n", "\r\n", "\r"))
    return ending.join(lines) + rng.choice((ending, ""))


@pytest.mark.parametrize("phrase", sorted(ERROR_CASES))
def test_each_error_branch(phrase):
    text = ERROR_CASES[phrase]
    with pytest.raises(ValueError) as info:
        parse_instance(text)
    got = (type(info.value), str(info.value))
    assert got == outcome(reference_parse_instance, text)
    assert phrase_of(got) == phrase
    assert (got[0] is FormatError) == (phrase != "negative vertex count")


def test_random_line_mixes_match_reference():
    rng = random.Random(2015)
    seen = {}
    for _ in range(20000):
        text = random_text(rng)
        want = outcome(reference_parse_instance, text)
        assert outcome(parse_instance, text) == want, text
        seen[phrase_of(want)] = seen.get(phrase_of(want), 0) + 1
    # every branch is hit, and a fair share of the mixes parse
    assert set(seen) == set(ERROR_CASES) | {"ok"}, seen
    assert seen["ok"] > 5000, seen


def test_large_shuffled_instances_match_reference():
    rng = random.Random(9)
    for _ in range(30):
        nx, ny = rng.randint(100, 300), rng.randint(100, 300)
        g = random_graph(rng, nx, ny, rng.uniform(1, 6) / ny)
        lines = serialize_instance(SdmInstance.make(g, rng.sample(range(nx), 2))).splitlines()
        edges = lines[1:-1]
        dups = rng.sample(edges, min(len(edges), 20))
        edges += dups
        rng.shuffle(edges)
        text = "\n".join([f"p sdm {nx} {ny} {len(edges)}", "c shuffled"] + edges + lines[-1:])
        got = parse_instance(text)
        assert got == reference_parse_instance(text)
        assert got.graph == g


@pytest.fixture
def line_reads(monkeypatch):
    """The text of every call to the line reader, in call order."""
    reads = []
    line_reader = graph._parse_lines

    def recording(text):
        reads.append(text)
        return line_reader(text)

    monkeypatch.setattr(graph, "_parse_lines", recording)
    return reads


def random_instance(rng):
    nx, ny = rng.randint(0, 40), rng.randint(0, 40)
    g = random_graph(rng, nx, ny, rng.choice((0.0, 0.05, 0.2, 0.6)))
    return SdmInstance.make(g, rng.sample(range(nx), rng.randint(0, nx)))


def test_serialized_instances_never_reach_the_line_reader(monkeypatch):
    def refuse(text):
        raise AssertionError(f"line reader called on {text[:40]!r}")

    monkeypatch.setattr(graph, "_parse_lines", refuse)
    rng = random.Random(24)
    for _ in range(500):
        instance = random_instance(rng)
        text = serialize_instance(instance)
        got = parse_instance(text)
        assert got == instance
        assert got == reference_parse_instance(text)


def test_plain_shuffled_and_duplicated_edges_are_read_in_bulk(line_reads):
    rng = random.Random(7)
    for _ in range(200):
        instance = random_instance(rng)
        lines = serialize_instance(instance).splitlines()
        s_line = lines[-1:] if lines[-1].startswith("s") else []
        edges = lines[1:len(lines) - len(s_line)]
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 5))] if edges else []
        rng.shuffle(edges)
        g = instance.graph
        text = "\n".join([f"p sdm {g.nx} {g.ny} {len(edges)}"] + edges + s_line) + "\n"
        got = parse_instance(text)
        assert got == reference_parse_instance(text) == instance
    assert line_reads == []


# plain-form texts that fail a check of the bulk reader, or that its pattern
# does not take, and so go to the line reader
HANDED_OVER = [
    "p sdm 2 2 1\ne 1 1\ne 2 2\n",       # m one short
    "p sdm 2 2 3\ne 1 1\ne 2 2\n",       # m one over
    "p sdm 2 2 1\ne 3 1\n",               # x = nx + 1
    "p sdm 2 2 1\ne 1 3\n",               # y = ny + 1
    "p sdm 2 2 1\ne 0 1\n",               # x = 0
    "p sdm 2 2 0\ns 0\n",                 # S member 0
    "p sdm 2 2 0\ns 1 3\n",               # S member nx + 1
    "p sdm 0 2 1\ne 1 1\n",               # nx = 0 with an edge
    "p sdm 1 1 1\ne 01 1\n",              # int reads 01, the pattern does not
    "p sdm 1 1 0\ns 01\n",                # the pattern takes 01, json does not
    "p sdm 1 1 " + "1" * 5000 + "\n",      # past int's digit limit
    "p sdm 1 1 1\ne " + "1" * 5000 + " 1\n",
    "p sdm 1 1 0\ns " + "1" * 5000 + "\n",
]


@pytest.mark.parametrize("text", HANDED_OVER, ids=lambda t: t[:24])
def test_plain_texts_failing_a_check_go_to_the_line_reader(text, line_reads):
    assert outcome(parse_instance, text) == outcome(reference_parse_instance, text)
    assert line_reads == [text]


def test_an_s_line_with_no_member_is_read_in_bulk(line_reads):
    text = "p sdm 0 0 0\ns\n"
    assert parse_instance(text) == reference_parse_instance(text)
    assert line_reads == []


def peak_bytes(parse, text):
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_reader_peak_is_well_below_the_line_readers():
    """On the 10 000-link chain the bulk reader's traced peak is 0.72 of the
    line reader's. Reading the numbers through a list of token strings takes
    it to 0.98, and a pattern with greedy in place of possessive quantifiers
    past 1, so the bound sits between."""
    text = serialize_instance(SdmInstance.make(chain_graph(10000), []))
    assert graph._PLAIN.fullmatch(text)
    assert peak_bytes(parse_instance, text) <= 0.85 * peak_bytes(graph._parse_lines, text)


@pytest.mark.parametrize("text", ["p sdm 400000 1 0\n", "c note\np sdm 400000 1 0\n"],
                         ids=["bulk", "line"])
def test_an_x_vertex_with_no_edge_costs_only_its_row_slot(text):
    """A container per header vertex took the bulk reader's traced peak to
    29 MB and the line reader's to 93 MB here; the shared () keeps each
    near the 3.2 MB of the row tuple."""
    assert peak_bytes(parse_instance, text) < 8_000_000
    assert parse_instance(text) == SdmInstance(BipartiteGraph(400000, 1, ((),) * 400000), ())
