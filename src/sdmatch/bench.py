"""Timing table for the solver workloads."""

from __future__ import annotations

import itertools
import random
import time
from typing import IO, Callable

from .graph import BipartiteGraph, SdmInstance, random_graph


def _time(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_solvers(out: IO[str]) -> None:
    from .lebensold import k_disjoint_saturating, lebensold_condition
    from .reductions import CnfFormula, GadgetMap, reduce_3sat_to_sdm
    from .solve import count_spairs_exact, solve

    rng = random.Random(7)
    out.write(f"{'workload':<32} {'ms':>10}\n")

    graphs = [random_graph(rng, 5, 5, 0.6) for _ in range(50)]

    def oracle_sweep() -> None:
        for g in graphs:
            if g.num_edges() <= 16:
                count_spairs_exact(SdmInstance.make(g, range(min(2, g.nx))))

    def lebensold_sweep() -> None:
        for g in graphs:
            for k in (1, 2, 3):
                lebensold_condition(g, k)
                k_disjoint_saturating(g, k)

    def poly_sweep() -> None:
        # |S| = |X| - 1: the factor-and-color route (PolyLargeS)
        for g in graphs:
            solve(SdmInstance.make(g, range(g.nx - 1)))

    # the exact search: the C8 variable gadget, and the 8 formulas that each
    # take 7 of the 8 full clauses over 3 variables (ExactBacktrack, |X| = 49)
    gm = GadgetMap(2, 1)
    c8 = SdmInstance.make(
        BipartiteGraph.from_edges(4, 4, [gm.cycle_edge(1, j) for j in range(1, 9)]),
        [gm.cycle_x(1, j) for j in (2, 6)])
    clauses = list(itertools.product((1, -1), (2, -2), (3, -3)))
    reduced = [reduce_3sat_to_sdm(CnfFormula.make(3, chosen))[0]
               for chosen in itertools.combinations(clauses, 7)]

    def search_sweep() -> None:
        for instance in [c8] + reduced:
            solve(instance)

    for name, fn in [("oracle count, 50 graphs", oracle_sweep),
                     ("lebensold k=1..3, 50 graphs", lebensold_sweep),
                     ("solve PolyLargeS, 50 graphs", poly_sweep),
                     ("exact search, C8 + 8 formulas", search_sweep)]:
        out.write(f"{name:<32} {_time(fn, repeats=1) * 1e3:10.2f}\n")


SUITES = {
    "solvers": _bench_solvers,
}


def run_suite(name: str, out: IO[str]) -> None:
    SUITES[name](out)
