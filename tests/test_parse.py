"""`parse_instance` against the reference two-pass parser in conftest.

On every input the parser must return the same `SdmInstance` as
`conftest.reference_parse_instance`, or raise the same exception type with
the same message: one input per error branch, then seeded mixes of p, e, s
and comment lines with blank lines, CRLF endings, duplicate edges and
out-of-range, negative and non-integer values.
"""

import random

import pytest

from sdmatch import FormatError, SdmInstance, parse_instance, serialize_instance
from conftest import random_graph, reference_parse_instance

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
