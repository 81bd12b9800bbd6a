"""Timing table for the solver workloads."""

from __future__ import annotations

import random
import time
from typing import IO, Callable

from .graph import SdmInstance, random_graph


def _time(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_solvers(out: IO[str]) -> None:
    from .lebensold import k_disjoint_saturating, lebensold_condition
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

    def dispatch_sweep() -> None:
        for g in graphs:
            solve(SdmInstance.make(g, range(g.nx - 1, g.nx)))

    for name, fn in [("oracle count, 50 graphs", oracle_sweep),
                     ("lebensold k=1..3, 50 graphs", lebensold_sweep),
                     ("solve dispatch, 50 graphs", dispatch_sweep)]:
        out.write(f"{name:<32} {_time(fn, repeats=1) * 1e3:10.2f}\n")


SUITES = {
    "solvers": _bench_solvers,
}


def run_suite(name: str, out: IO[str]) -> None:
    SUITES[name](out)
