import itertools
import random

import pytest

from sdmatch import BipartiteGraph, SdmInstance
from sdmatch.reductions import GadgetMap


def random_graph(rng: random.Random, nx: int, ny: int, density: float = 0.5) -> BipartiteGraph:
    edges = [(x, y) for x in range(nx) for y in range(ny) if rng.random() < density]
    return BipartiteGraph.from_edges(nx, ny, edges)


def chain_graph(n: int) -> BipartiteGraph:
    """x0:{y0}, xi:{y(i-1), yi}: a recursive augmenting-path search goes one
    level deeper per link."""
    edges = [(0, 0)] + [e for i in range(1, n) for e in ((i, i - 1), (i, i))]
    return BipartiteGraph.from_edges(n, n, edges)


def all_graphs_3x3():
    """All 512 bipartite graphs with nx = ny = 3."""
    for mask in range(1 << 9):
        edges = [(i // 3, i % 3) for i in range(9) if mask >> i & 1]
        yield BipartiteGraph.from_edges(3, 3, edges)


def all_s_subsets(nx: int):
    for r in range(nx + 1):
        yield from itertools.combinations(range(nx), r)


def brute_force_spair_presence(graph: BipartiteGraph, s_set) -> bool:
    """Independent oracle: enumerate all matching pairs as edge subsets."""
    edges = graph.edges()
    matchings = []
    for mask in range(1 << len(edges)):
        sub = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        xs = [x for x, _ in sub]
        ys = [y for _, y in sub]
        if len(set(xs)) == len(xs) and len(set(ys)) == len(ys):
            matchings.append((frozenset(sub), set(xs)))
    full_x = set(range(graph.nx))
    want_s = set(s_set)
    for m1, x1 in matchings:
        if x1 != full_x:
            continue
        for m2, x2 in matchings:
            if not (m1 & m2) and want_s <= x2:
                return True
    return False


@pytest.fixture
def c8_gadget():
    """The length-8 variable cycle with its distinguished vertex set."""
    gm = GadgetMap(2, 1)
    edges = [gm.cycle_edge(1, j) for j in range(1, 9)]
    graph = BipartiteGraph.from_edges(4, 4, edges)
    s_set = [gm.cycle_x(1, j) for j in (2, 6)]
    return SdmInstance.make(graph, s_set), gm
