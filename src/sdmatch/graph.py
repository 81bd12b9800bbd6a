"""Bipartite graph, matching, and certificate types plus the text formats.

Vertices are identified by (side, index): X vertices 0..nx-1, Y vertices
0..ny-1. All types are immutable after construction; operations are pure.
Indices are 0-based in memory and 1-based in the text format.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional


class FormatError(ValueError):
    """Raised when a text instance or solution cannot be parsed."""


@dataclass(frozen=True)
class BipartiteGraph:
    """An (X,Y)-bigraph stored as sorted X-side adjacency lists."""

    nx: int
    ny: int
    adj: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(nx: int, ny: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        """Build a canonical graph from a raw edge list.

        Duplicate edges are silently removed; out-of-range endpoints or
        negative vertex counts raise ValueError.
        """
        if nx < 0 or ny < 0:
            raise ValueError(f"negative vertex count: nx={nx}, ny={ny}")
        neigh: list[set[int]] = [set() for _ in range(nx)]
        for x, y in edges:
            if not 0 <= x < nx:
                raise ValueError(f"x-index out of range: {x} (nx={nx})")
            if not 0 <= y < ny:
                raise ValueError(f"y-index out of range: {y} (ny={ny})")
            neigh[x].add(y)
        return BipartiteGraph(nx, ny, tuple(tuple(sorted(s)) for s in neigh))

    @cached_property
    def y_adj(self) -> tuple[tuple[int, ...], ...]:
        """Y-side adjacency lists, sorted ascending."""
        neigh: list[list[int]] = [[] for _ in range(self.ny)]
        for x in range(self.nx):
            for y in self.adj[x]:
                neigh[y].append(x)
        return tuple(tuple(ys) for ys in neigh)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset((x, y) for x in range(self.nx) for y in self.adj[x])

    def edges(self) -> list[tuple[int, int]]:
        """All edges sorted by (x, y)."""
        return [(x, y) for x in range(self.nx) for y in self.adj[x]]

    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj)

    def has_edge(self, x: int, y: int) -> bool:
        return (x, y) in self.edge_set

    def degree_x(self, x: int) -> int:
        return len(self.adj[x])

    def degree_y(self, y: int) -> int:
        return len(self.y_adj[y])

    def without_edges(self, removed: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        """Copy of this graph with the given edges deleted."""
        gone = set(removed)
        return BipartiteGraph.from_edges(
            self.nx, self.ny, (e for e in self.edges() if e not in gone)
        )


def random_graph(rng: random.Random, nx: int, ny: int, density: float) -> BipartiteGraph:
    """Each of the nx*ny edges independently with probability density, drawn
    in (x, y) order, so one seed always gives the same graph."""
    edges = [(x, y) for x in range(nx) for y in range(ny) if rng.random() < density]
    return BipartiteGraph.from_edges(nx, ny, edges)


def validate_graph(nx: int, ny: int, edges: Iterable[tuple[int, int]]) -> BipartiteGraph:
    """Canonicalize a raw edge list into a BipartiteGraph (alias helper)."""
    return BipartiteGraph.from_edges(nx, ny, edges)


@dataclass(frozen=True)
class Matching:
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

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def covered_x(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.edges)

    @cached_property
    def covered_y(self) -> frozenset[int]:
        return frozenset(y for _, y in self.edges)

    def __len__(self) -> int:
        return len(self.edges)


def is_matching(graph: BipartiteGraph, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff the edges are pairwise endpoint-disjoint and all lie in the graph."""
    pairs = list(edges)
    if any(e not in graph.edge_set for e in pairs):
        return False
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    return len(set(xs)) == len(xs) and len(set(ys)) == len(ys) and len(set(pairs)) == len(pairs)


@dataclass(frozen=True)
class SdmInstance:
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


@dataclass(frozen=True)
class SPair:
    """Candidate certificate: disjoint matchings (M1 saturating X, M2 saturating S)."""

    m1: Matching
    m2: Matching


@dataclass(frozen=True)
class DmInstance:
    """Two bigraphs on the same vertex set."""

    g1: BipartiteGraph
    g2: BipartiteGraph

    def __post_init__(self) -> None:
        if (self.g1.nx, self.g1.ny) != (self.g2.nx, self.g2.ny):
            raise ValueError("g1 and g2 must share nx and ny")


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
    g = instance.graph
    lines = [f"p sdm {g.nx} {g.ny} {g.num_edges()}"]
    for x, y in g.edges():
        lines.append(f"e {x + 1} {y + 1}")
    if instance.s_set:
        lines.append("s " + " ".join(str(x + 1) for x in instance.s_set))
    return "\n".join(lines) + "\n"


def serialize_graph(graph: BipartiteGraph) -> str:
    return serialize_instance(SdmInstance(graph, ()))


def parse_instance(text: str) -> SdmInstance:
    nx = ny = m = -1
    edges: list[tuple[int, int]] = []
    s_line: Optional[list[int]] = None
    seen_p = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "p":
            if seen_p:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(tokens) != 5 or tokens[1] != "sdm":
                raise FormatError(f"line {lineno}: malformed problem line {line!r}")
            try:
                nx, ny, m = int(tokens[2]), int(tokens[3]), int(tokens[4])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-integer counts") from exc
            seen_p = True
        elif kind == "e":
            if not seen_p:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: malformed edge line {line!r}")
            try:
                x, y = int(tokens[1]), int(tokens[2])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-integer endpoint") from exc
            if not (1 <= x <= nx and 1 <= y <= ny):
                raise FormatError(f"line {lineno}: endpoint out of range in {line!r}")
            edges.append((x - 1, y - 1))
        elif kind == "s":
            if not seen_p:
                raise FormatError(f"line {lineno}: s line before problem line")
            if s_line is not None:
                raise FormatError(f"line {lineno}: duplicate s line")
            try:
                s_line = [int(t) for t in tokens[1:]]
            except ValueError as exc:
                raise FormatError(f"line {lineno}: non-integer S member") from exc
            for x in s_line:
                if not 1 <= x <= nx:
                    raise FormatError(f"line {lineno}: S member {x} out of range")
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")
    if not seen_p:
        raise FormatError("missing problem line")
    if len(edges) != m:
        raise FormatError(f"edge count mismatch: header says {m}, found {len(edges)}")
    graph = BipartiteGraph.from_edges(nx, ny, edges)
    s_set = [x - 1 for x in s_line] if s_line else []
    return SdmInstance.make(graph, s_set)


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
    tokens = line.split()
    if not tokens or tokens[0] != label:
        raise FormatError(f"line {lineno}: expected {label} line, got {line!r}")
    edges = []
    for tok in tokens[1:]:
        try:
            xs, ys = tok.split(":")
            edges.append((int(xs) - 1, int(ys) - 1))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: malformed pair {tok!r}") from exc
    try:
        return Matching.from_edges(edges)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: {exc}") from exc


def parse_solution(text: str) -> Optional[SPair]:
    lines = [
        (i, ln.strip())
        for i, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("c")
    ]
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
