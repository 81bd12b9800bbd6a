"""Scoring of per-instance outcomes, SAT-competition style.

An instance is *solved* when it got a verdict within the time limit T that
passed the checker; its time is the median of its runs' host-normalised
times (see ``run.Runner``). An *undecided* instance hit T; an *error*
crashed, exited 2, or gave a wrong verdict or an invalid certificate.
Undecided and error instances count at 2*T (PAR-2).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

SOLVED, UNDECIDED, ERROR = "solved", "undecided", "error"

TAIL_SAMPLES_ABOVE = 10


@dataclass
class Outcome:
    status: str
    walls: list[float] = field(default_factory=list)
    reason: str = ""

    @property
    def time(self) -> float:
        """Median time of the runs."""
        return statistics.median(self.walls)

    def charged(self, limit: float) -> float:
        """Seconds this instance counts for: its median time, or 2*T if unsolved."""
        if self.status == SOLVED:
            return self.time
        return 2 * limit


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at least
    ten samples above it: the 11th-largest value, at 100*(n-10)/n."""
    n = len(values)
    if n <= TAIL_SAMPLES_ABOVE:
        raise ValueError(f"need more than {TAIL_SAMPLES_ABOVE} samples for a tail, got {n}")
    ranked = sorted(values)
    return ranked[n - TAIL_SAMPLES_ABOVE - 1], 100.0 * (n - TAIL_SAMPLES_ABOVE) / n


def summarize(outcomes: list[Outcome], limit: float) -> dict[str, float]:
    """End-to-end figures for one pass over the instance set."""
    n = len(outcomes)
    charged = [o.charged(limit) for o in outcomes]
    solved = sum(o.status == SOLVED for o in outcomes)
    # time one pass takes: median times for solved instances, actual time
    # spent on the others (T for a time-out, until the crash for an error)
    pass_wall = sum(o.time for o in outcomes)
    tail_value, tail_pct = tail(charged)
    return {
        "par2_s": statistics.mean(charged),
        "latency_p50_ms": 1e3 * statistics.median(charged),
        "latency_tail_ms": 1e3 * tail_value,
        "tail_percentile": tail_pct,
        "samples": n,
        "solved_per_s": solved / pass_wall,
        "solved_frac": solved / n,
        "undecided_frac": sum(o.status == UNDECIDED for o in outcomes) / n,
        "error_frac": sum(o.status == ERROR for o in outcomes) / n,
    }
