"""Bipartite graph, matching, and certificate types plus the text formats.

Vertices are identified by (side, index): X vertices 0..nx-1, Y vertices
0..ny-1. All types are immutable after construction; operations are pure.
Indices are 0-based in memory and 1-based in the text format. An instance
is read by one of two readers with the same result: text in the plain form
that `serialize_instance` writes is read in bulk, and every other text, or
a plain one that fails a check, line by line. Only the line reader raises.
"""

from __future__ import annotations

import json
import re
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

if TYPE_CHECKING:  # random is only an annotation here
    import random


class FormatError(ValueError):
    """Raised when a text instance or solution cannot be parsed."""


# The most vertices on either side of an instance that a reader accepts,
# and of the 3-SAT gadget built from a CNF. A header vertex keeps a slot in
# the row tuple whether or not an e line names it, so without a bound a
# short text could ask for gigabytes. m needs no bound: each edge is a line.
MAX_VERTICES = 500_000


class BipartiteGraph(NamedTuple):
    """An (X,Y)-bigraph stored as sorted X-side adjacency lists."""

    nx: int
    ny: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(nx: int, ny: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        """Build a canonical graph from a raw edge list, at one slot per X
        vertex until its first edge. Duplicate edges are silently removed;
        out-of-range endpoints or negative vertex counts raise ValueError.
        """
        if nx < 0 or ny < 0:
            raise ValueError(f"negative vertex count: nx={nx}, ny={ny}")
        neigh: list[Optional[set[int]]] = [None] * nx
        for x, y in edges:
            if not 0 <= x < nx:
                raise ValueError(f"x-index out of range: {x} (nx={nx})")
            if not 0 <= y < ny:
                raise ValueError(f"y-index out of range: {y} (ny={ny})")
            if (row := neigh[x]) is None:
                neigh[x] = {y}
            else:
                row.add(y)
        return BipartiteGraph(nx, ny, tuple(tuple(sorted(s)) if s else () for s in neigh))

    def edges(self) -> list[tuple[int, int]]:
        """All edges sorted by (x, y)."""
        return [(x, y) for x in range(self.nx) for y in self.adj[x]]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj)


def random_graph(rng: random.Random, nx: int, ny: int, density: float) -> BipartiteGraph:
    """Each of the nx*ny edges independently with probability density, drawn
    in (x, y) order, so one seed always gives the same graph."""
    edges = [(x, y) for x in range(nx) for y in range(ny) if rng.random() < density]
    return BipartiteGraph.from_edges(nx, ny, edges)


class Matching(NamedTuple):
    """A set of pairwise endpoint-disjoint edges, stored sorted by x."""

    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_edges(edges: Iterable[tuple[int, int]]) -> "Matching":
        pairs = sorted(set(edges))
        xs = [x for x, _ in pairs]
        ys = [y for _, y in pairs]
        if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
            raise ValueError("edges share an endpoint; not a matching")
        return Matching(tuple(pairs))

    @staticmethod
    def from_match_x(match_x: Sequence[int]) -> "Matching":
        """The pairs (x, match_x[x]) of every matched x (-1 means unmatched),
        already sorted by x; only the Y vertices can clash."""
        pairs = tuple([(x, y) for x, y in enumerate(match_x) if y != -1])
        ys = set(match_x)
        ys.discard(-1)
        if len(ys) != len(pairs):
            raise ValueError("edges share an endpoint; not a matching")
        return Matching(pairs)

    @property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @property
    def covered_x(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def is_matching(graph: BipartiteGraph, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the edges are pairwise endpoint-disjoint and all lie in the
    graph: each is looked up in its X vertex's row, and an x outside 0..nx-1 has none."""
    pairs = list(edges)
    if not all(0 <= x < graph.nx and y in graph.adj[x] for x, y in pairs):
        return False
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    return len(set(xs)) == len(xs) and len(set(ys)) == len(ys)


class SdmInstance(NamedTuple):
    """A bigraph together with the distinguished set S of X vertices."""

    graph: BipartiteGraph
    s_set: tuple[int, ...]

    @staticmethod
    def make(graph: BipartiteGraph, s_set: Iterable[int]) -> "SdmInstance":
        s = sorted(set(s_set))
        for x in s:
            if not 0 <= x < graph.nx:
                raise ValueError(f"S member out of range: {x}")
        return SdmInstance(graph, tuple(s))


class SPair(NamedTuple):
    """Candidate certificate: disjoint matchings (M1 saturating X, M2 saturating S)."""

    m1: Matching
    m2: Matching


# a NamedTuple body may not define __new__, so the shape check subclasses it
class _GraphPair(NamedTuple):
    g1: BipartiteGraph
    g2: BipartiteGraph


class DmInstance(_GraphPair):
    """Two bigraphs on the same vertex set."""

    __slots__ = ()

    def __new__(cls, g1: BipartiteGraph, g2: BipartiteGraph) -> "DmInstance":
        if (g1.nx, g1.ny) != (g2.nx, g2.ny):
            raise ValueError("g1 and g2 must share nx and ny")
        return super().__new__(cls, g1, g2)


def verify_spair(instance: SdmInstance, candidate: SPair) -> tuple[bool, str]:
    """Check the three S-pair conditions, naming the first violated one."""
    g = instance.graph
    if not is_matching(g, candidate.m1.edges):
        return False, "m1 is not a matching in the graph"
    if not is_matching(g, candidate.m2.edges):
        return False, "m2 is not a matching in the graph"
    if candidate.m1.edge_set & candidate.m2.edge_set:
        return False, "not disjoint"
    if not candidate.m1.covered_x >= frozenset(range(g.nx)):
        return False, "m1 does not saturate X"
    if not candidate.m2.covered_x >= frozenset(instance.s_set):
        return False, "m2 does not saturate S"
    return True, "ok"


# ---------------------------------------------------------------------------
# Text formats (line-oriented ASCII; 1-based indices)


def serialize_instance(instance: SdmInstance) -> str:
    return "".join(instance_chunks(instance))


def instance_chunks(instance: SdmInstance) -> Iterator[str]:
    """The text of `serialize_instance` in pieces of at most 1 << 16 lines,
    so that a dense graph is written without its whole text in memory."""
    g = instance.graph
    lines = chain([f"p sdm {g.nx} {g.ny} {g.num_edges()}"],
                  (f"e {x} {y + 1}" for x, row in enumerate(g.adj, start=1) for y in row))
    if instance.s_set:
        lines = chain(lines, ["s " + " ".join(str(x + 1) for x in instance.s_set)])
    while piece := list(islice(lines, 1 << 16)):
        yield "\n".join(piece) + "\n"


# Exactly the form serialize_instance writes, in any edge order. The
# quantifiers are possessive, so the match keeps no backtracking state per
# line; [0-9] is ASCII, where \d would also take other scripts' digits.
_PLAIN = re.compile(
    r"p sdm ([0-9]+) ([0-9]+) ([0-9]+)\n"
    r"((?:e [1-9][0-9]* [1-9][0-9]*\n)*+)"
    r"(?:s((?: [0-9]+)*+)\n)?"
)


def parse_instance(text: str) -> SdmInstance:
    """Read an instance. Text in the plain form is read in bulk; any other
    text, and a plain one that fails a check, goes to the line reader, which
    gives the same instance or raises FormatError naming the line. Duplicate
    e lines count toward the header's m but add no edge."""
    return _parse_plain(text) or _parse_lines(text)


def _parse_plain(text: str) -> Optional[SdmInstance]:
    """The instance of a plain-form text, or None for the line reader: when
    the text is not in the plain form, a number does not convert, m is not
    the number of e lines, a side has more than MAX_VERTICES vertices, or an
    endpoint or S member is out of range."""
    match = _PLAIN.fullmatch(text)
    if match is None:
        return None
    try:
        nx, ny, m = int(match[1]), int(match[2]), int(match[3])
        # json's C scanner reads the numbers without one string per number
        nums = json.loads("[" + match[4][2:-1].replace("\ne ", ",").replace(" ", ",") + "]")
        s_line = json.loads("[" + match[5][1:].replace(" ", ",") + "]") if match[5] else []
    except ValueError:
        return None
    top_x = max(islice(nums, 0, None, 2), default=0)
    if (len(nums) != 2 * m or top_x > nx or max(nx, ny) > MAX_VERTICES
            or max(islice(nums, 1, None, 2), default=0) > ny
            or not all(1 <= x <= nx for x in s_line)):
        return None
    # a list only for an X vertex with an edge; every other row is the one ()
    neigh: list[Optional[list[int]]] = [None] * top_x
    pairs = iter(nums)
    for x, y in zip(pairs, pairs):
        if (row := neigh[x - 1]) is None:
            neigh[x - 1] = [y - 1]
        else:
            row.append(y - 1)
    del nums, pairs  # freed before the tuples are built, which lowers the peak
    rows = tuple(tuple(sorted(set(a))) if a else () for a in neigh) + ((),) * (nx - top_x)
    return SdmInstance.make(BipartiteGraph(nx, ny, rows), [x - 1 for x in s_line])


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(lineno, line.strip()), lineno from 1, for each line that is neither
    blank nor a comment (first non-blank character ``c``): the line rule of
    the instance, solution and DIMACS CNF formats."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "c":
            yield lineno, line


def int_fields(words: Sequence[str], lineno: int, what: str) -> list[int]:
    """The words as ints, each an optional "-" and ASCII digits, or
    FormatError "line N: what" chained from the ValueError: the one integer
    rule of every text reader, one call per line. int() refuses a misplaced
    "-", and all else it takes ("+1", "1_0", other scripts' digits) is no
    ASCII digit. To name a bad word, call again word by word on the error."""
    try:
        digits = "".join(words).replace("-", "")
        if words and not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"not an optional '-' and ASCII digits: {words}")
        return list(map(int, words))
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {what}") from exc


def _parse_lines(text: str) -> SdmInstance:
    """Read an instance in one pass: each e line is checked once and kept as
    a 0-based pair, and `BipartiteGraph.from_edges` builds the rows."""
    nx = ny = m = -1
    edges: list[tuple[int, int]] = []
    s_line: Optional[list[int]] = None
    seen_p = False
    for lineno, line in content_lines(text):
        tokens = line.split()
        kind = tokens[0]
        if kind == "e":
            if not seen_p:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: malformed edge line {line!r}")
            x, y = int_fields(tokens[1:], lineno, "non-integer endpoint")
            if not (1 <= x <= nx and 1 <= y <= ny):
                raise FormatError(f"line {lineno}: endpoint out of range in {line!r}")
            edges.append((x - 1, y - 1))
        elif kind == "p":
            if seen_p:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(tokens) != 5 or tokens[1] != "sdm":
                raise FormatError(f"line {lineno}: malformed problem line {line!r}")
            nx, ny, m = int_fields(tokens[2:], lineno, "non-integer counts")
            if max(nx, ny) > MAX_VERTICES:
                raise FormatError(f"line {lineno}: more than {MAX_VERTICES} vertices on a side")
            seen_p = True
        elif kind == "s":
            if not seen_p:
                raise FormatError(f"line {lineno}: s line before problem line")
            if s_line is not None:
                raise FormatError(f"line {lineno}: duplicate s line")
            s_line = int_fields(tokens[1:], lineno, "non-integer S member")
            for x in s_line:
                if not 1 <= x <= nx:
                    raise FormatError(f"line {lineno}: S member {x} out of range")
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
    if not seen_p:
        raise FormatError("missing problem line")
    if len(edges) != m:
        raise FormatError(f"edge count mismatch: header says {m}, found {len(edges)}")
    s_set = [x - 1 for x in s_line] if s_line else []
    return SdmInstance.make(BipartiteGraph.from_edges(nx, ny, edges), s_set)


def _format_matching_line(label: str, matching: Matching) -> str:
    parts = [f"{x + 1}:{y + 1}" for x, y in matching.edges]
    return " ".join([label] + parts)


def serialize_solution(spair: Optional[SPair]) -> str:
    if spair is None:
        return "RESULT no\n"
    return (
        "RESULT yes\n"
        + _format_matching_line("M1", spair.m1)
        + "\n"
        + _format_matching_line("M2", spair.m2)
        + "\n"
    )


def _parse_matching_line(line: str, label: str, lineno: int) -> Matching:
    first, *pairs = line.split()  # a content line has a first word
    if first != label:
        raise FormatError(f"line {lineno}: expected {label} line, got {line!r}")
    # a pair without exactly one ":" leaves a field that is not an integer
    fields = [n for tok in pairs for n in tok.partition(":")[::2]]
    try:
        nums = int_fields(fields, lineno, "malformed pair")
    except FormatError:  # pair by pair, to name the first bad one
        for tok in pairs:
            int_fields(tok.partition(":")[::2], lineno, f"malformed pair {tok!r}")
        raise
    try:
        return Matching.from_edges((x - 1, y - 1) for x, y in zip(nums[::2], nums[1::2]))
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc


def parse_solution(text: str) -> Optional[SPair]:
    lines = list(content_lines(text))
    if not lines:
        raise FormatError("empty solution")
    lineno, first = lines[0]
    if first == "RESULT no":
        if len(lines) > 1:
            raise FormatError("trailing content after RESULT no")
        return None
    if first != "RESULT yes":
        raise FormatError(f"line {lineno}: expected RESULT line, got {first!r}")
    if len(lines) != 3:
        raise FormatError("RESULT yes must be followed by exactly M1 and M2 lines")
    m1 = _parse_matching_line(lines[1][1], "M1", lines[1][0])
    m2 = _parse_matching_line(lines[2][1], "M2", lines[2][0])
    return SPair(m1, m2)
