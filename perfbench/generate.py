"""Seeded instance generator owned by the benchmark.

Every instance is drawn from its own ``random.Random`` keyed by the string
``"<workload>/<seed>/<index>"`` (string seeds hash through SHA-512, so the
stream is the same on every platform and Python run), which makes the files
byte-identical for the same seed. The files use the program's own text
formats: ``.sdm`` (``p sdm``/``e``/``s`` lines, 1-based) and DIMACS CNF.

Sizes, |S| and the yes/no-leaning design follow a fixed ladder per workload;
the seed draws the edges, S members and clauses. A fixed ladder keeps the
instance mix (and so the run-to-run spread) the same for every seed, while a
new seed still gives new graphs and formulas.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

Edge = tuple[int, int]


@dataclass
class Instance:
    """One generated input together with what the checker needs to know."""

    name: str
    family: str
    kind: str  # "solve", "lebensold" or "sat"
    nx: int = 0
    ny: int = 0
    edges: tuple[Edge, ...] = ()
    s_set: tuple[int, ...] = ()
    k: int = 0
    num_vars: int = 0
    clauses: tuple[tuple[int, ...], ...] = ()
    # why the program fails this instance at the measured commit; "" when it
    # is expected to give a verdict within T (see RECORD.json)
    known_defect: str = ""
    paths: dict[str, Path] = field(default_factory=dict)

    def text(self) -> str:
        if self.kind == "sat":
            return dimacs_text(self.num_vars, self.clauses)
        return sdm_text(self.nx, self.ny, self.edges, self.s_set)

    @property
    def input_path(self) -> Path:
        return self.paths["cnf" if self.kind == "sat" else "sdm"]


def sdm_text(nx: int, ny: int, edges: tuple[Edge, ...], s_set: tuple[int, ...]) -> str:
    lines = [f"p sdm {nx} {ny} {len(edges)}"]
    lines.extend(f"e {x + 1} {y + 1}" for x, y in edges)
    if s_set:
        lines.append("s " + " ".join(str(x + 1) for x in s_set))
    return "\n".join(lines) + "\n"


def dimacs_text(num_vars: int, clauses: tuple[tuple[int, ...], ...]) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _graph_instance(name: str, family: str, nx: int, ny: int, edges,
                    s_set=(), kind: str = "solve", k: int = 0, known_defect: str = "") -> Instance:
    return Instance(name, family, kind, nx=nx, ny=ny, edges=tuple(sorted(set(edges))),
                    s_set=tuple(sorted(s_set)), k=k, known_defect=known_defect)


def _erdos_renyi(rng: random.Random, nx: int, ny: int, p: float) -> list[Edge]:
    return [(x, y) for x in range(nx) for y in range(ny) if rng.random() < p]


def _d_out(rng: random.Random, nx: int, ny: int, d: int,
           planted: Optional[list[int]] = None) -> list[Edge]:
    """Each X vertex gets d distinct neighbours; planted[x] is always one."""
    edges = []
    for x in range(nx):
        ys = {planted[x]} if planted is not None else set()
        while len(ys) < d:
            ys.add(rng.randrange(ny))
        edges.extend((x, y) for y in ys)
    return edges


def chain_edges(n: int) -> list[Edge]:
    """The adversarial chain x0:{y0}, xi:{y(i-1), yi}."""
    return [(0, 0)] + [e for i in range(1, n) for e in ((i, i - 1), (i, i))]


# ---------------------------------------------------------------------------
# Workload families

# Size tiers. The median (15th/16th of 30) and the tail (11th largest) both
# fall inside the 20-instance tier, where they are interior order statistics
# of same-sized graphs rather than the edge between two sizes; the time of
# same-sized graphs still varies by half, so the tier is most of the set.
POLY_SIZES = (150,) * 3 + (200,) * 3 + (240,) * 20 + (300,) * 4
POLY_AVG_DEGREE = 8.5


def poly_factor(seed: int) -> list[Instance]:
    """|S| >= |X|-1 on G(n, n, 8.5/n) for n in POLY_SIZES."""
    out = []
    for i, n in enumerate(POLY_SIZES):
        rng = _rng("poly-factor", seed, i)
        edges = _erdos_renyi(rng, n, n, POLY_AVG_DEGREE / n)
        s_set = set(range(n))
        if i % 2:
            s_set.discard(rng.randrange(n))
        out.append(_graph_instance(f"random-{i:02d}-n{n}", "random", n, n, edges, s_set))
    return out


SPARSE_N = 1000
# 24 sparse graphs, 6 of each design: the median lands inside the plain |S|=0
# group and the tail inside the plain |S|=1 group
SPARSE_COUNT = 24
SPARSE_DEGREE = 3
CHAIN_SIZES = (200, 400, 600, 800, 1500, 4000, 10000)
SURPLUS_S_SIZES = (4, 6, 8)
# the recursive pure-Python kernel goes one frame deeper per chain link, and
# Python's default recursion limit is 1000
CHAIN_DEFECT = "RecursionError in the recursive matching kernel"
CHAIN_DEFECT_FROM = 1000
SURPLUS_DEFECT = "BoundedS has no budget and no Hall pre-check, so it runs into T"


def small_s_matching(seed: int) -> list[Instance]:
    """Sparse |S| <= 1 graphs, adversarial chains, and surplus-X graphs."""
    out = []
    for i in range(SPARSE_COUNT):
        rng = _rng("small-s-matching", seed, i)
        # cycle through (planted partner, |S|) = (yes, 0), (yes, 1), (no, 0), (no, 1)
        planted = i % 4 < 2
        s_size = i % 2
        ny = SPARSE_N + rng.randint(5, 20)
        partner = rng.sample(range(ny), SPARSE_N) if planted else None
        edges = _d_out(rng, SPARSE_N, ny, SPARSE_DEGREE, partner)
        s_set = rng.sample(range(SPARSE_N), s_size)
        tag = "planted" if planted else "plain"
        out.append(_graph_instance(f"sparse-{i:02d}-{tag}-s{s_size}", "sparse",
                                   SPARSE_N, ny, edges, s_set))
    for n in CHAIN_SIZES:
        defect = CHAIN_DEFECT if n >= CHAIN_DEFECT_FROM else ""
        out.append(_graph_instance(f"chain-n{n}", "chain", n, n, chain_edges(n),
                                   known_defect=defect))
    for j, s_size in enumerate(SURPLUS_S_SIZES):
        rng = _rng("small-s-matching", seed, SPARSE_COUNT + j)
        ny = SPARSE_N - rng.randint(1, 10)
        edges = _d_out(rng, SPARSE_N, ny, SPARSE_DEGREE)
        s_set = rng.sample(range(SPARSE_N), s_size)
        out.append(_graph_instance(f"surplus-{j}-s{s_size}", "surplus",
                                   SPARSE_N, ny, edges, s_set, known_defect=SURPLUS_DEFECT))
    return out


# Graphs within reach of the 2^|X| check, as tiers (|X|, count, design): in
# a "mixed" tier k cycles through 2..4 and the design alternates between
# roomy and tight; "roomy-k3" fixes k = 3 and the roomy design, whose
# condition holds, so that the whole 2^|X| enumeration runs. A violated
# condition stops at the first witness, which makes the time of tight
# graphs vary, so the median and the tail are each put in the middle of a
# roomy-k3 tier rather than on the edge between two designs: with the six
# large graphs on top, the median (33rd/34th of 66) falls in the |X| = 12
# tier and the tail (11th largest, the 5th of the solved) in the |X| = 14 tier.
LEBENSOLD_SMALL = ((10, 12, "mixed"), (11, 11, "mixed"), (12, 20, "roomy-k3"),
                   (13, 8, "mixed"), (14, 9, "roomy-k3"))
LEBENSOLD_LARGE_X = (24, 40, 60, 90, 120, 150)
LEBENSOLD_DEFECT = "lebensold_condition refuses |X| > 20, so the CLI exits 2"


def _lebensold_graph(rng: random.Random, nx: int, k: int, roomy: bool) -> tuple[int, list[Edge]]:
    # roomy: |Y| = 1.5|X| and degree 2k, which mostly holds;
    # tight: |Y| = |X| and degree k+1, which mostly violates the condition
    if roomy:
        ny = math.ceil(1.5 * nx)
        return ny, _d_out(rng, nx, ny, min(2 * k, ny))
    return nx, _d_out(rng, nx, nx, min(k + 1, nx))


def lebensold_k(seed: int) -> list[Instance]:
    """k in {2,3,4}; |X| 10..14 (brute-force range) and 24..150 (above it)."""
    out = []
    index = 0
    for nx, design in [(nx, design) for nx, count, design in LEBENSOLD_SMALL
                       for _ in range(count)]:
        rng = _rng("lebensold-k", seed, index)
        k = 2 + index % 3 if design == "mixed" else 3
        roomy = index % 2 == 0 or design == "roomy-k3"
        ny, edges = _lebensold_graph(rng, nx, k, roomy)
        out.append(_graph_instance(f"small-{index:02d}-x{nx}-k{k}", "small",
                                   nx, ny, edges, kind="lebensold", k=k))
        index += 1
    for nx in LEBENSOLD_LARGE_X:
        rng = _rng("lebensold-k", seed, index)
        k = 2 + index % 3
        ny, edges = _lebensold_graph(rng, nx, k, roomy=True)
        out.append(_graph_instance(f"large-{index:02d}-x{nx}-k{k}", "large", nx, ny, edges,
                                   kind="lebensold", k=k, known_defect=LEBENSOLD_DEFECT))
        index += 1
    return out


# Seven clauses over three variables (ratio 2.33). Larger or denser
# formulas have a heavy-tailed time to a verdict (one formula in a hundred
# takes 20-50 times the median at 4-5 variables and ratio 2.5), which makes
# the mean over a few hundred formulas change by more than 0.1 from seed to
# seed (see README.md). Over three variables a clause is one of eight sign
# patterns, each ruling out one assignment, so a formula is satisfiable
# exactly when it has at most seven distinct clauses, and which ones decides
# how far the search runs. The workload therefore takes every set of
# SAT_DISTINCT distinct clauses once; the seed draws the clause order, the
# literal order and which clauses repeat, on which the search order depends.
SAT_VARS = 3
SAT_CLAUSES = 7
SAT_DISTINCT = (4, 5, 6, 7)


def sat_search(seed: int) -> list[Instance]:
    """Every satisfiable set of SAT_DISTINCT distinct clauses over SAT_VARS
    variables, filled up to SAT_CLAUSES clauses, in a seeded order."""
    patterns = [tuple(v if (bits >> (v - 1)) & 1 else -v for v in range(1, SAT_VARS + 1))
                for bits in range(2 ** SAT_VARS)]
    sets = [c for d in SAT_DISTINCT for c in itertools.combinations(patterns, d)]
    out = []
    for i, chosen in enumerate(sets):
        rng = _rng("sat-search", seed, i)
        clauses = list(chosen) + [rng.choice(chosen) for _ in range(SAT_CLAUSES - len(chosen))]
        rng.shuffle(clauses)
        out.append(Instance(f"cnf-{i:03d}-d{len(chosen)}", "3cnf", "sat", num_vars=SAT_VARS,
                            clauses=tuple(tuple(rng.sample(c, 3)) for c in clauses)))
    return out


GENERATORS: dict[str, Callable[[int], list[Instance]]] = {
    "poly-factor": poly_factor,
    "small-s-matching": small_s_matching,
    "sat-search": sat_search,
    "lebensold-k": lebensold_k,
}

WARMUP_TEXT = sdm_text(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)), (0,))


def write_instances(instances: list[Instance], directory: Path) -> None:
    """Write each instance's input file and fix the paths its steps use."""
    directory.mkdir(parents=True, exist_ok=True)
    for inst in instances:
        stem = directory / inst.name
        if inst.kind == "sat":
            inst.paths = {"cnf": stem.with_suffix(".cnf"), "map": stem.with_suffix(".map"),
                          "sdm": stem.with_suffix(".sdm"), "sol": stem.with_suffix(".sol")}
        else:
            inst.paths = {"sdm": stem.with_suffix(".sdm")}
        inst.input_path.write_text(inst.text(), encoding="ascii")
