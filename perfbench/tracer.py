"""Call-site tracer: wraps the program's public functions where they are called.

Each layer is named ``<module>.<function>`` and resolved from an sdmatch
module. A plain function is replaced in every loaded ``sdmatch.*`` namespace
that holds it (so ``sdmatch.solve.gf_factor`` and ``sdmatch.lebensold.gf_factor``
are both wrapped); a method is replaced on its class. A layer whose name no
longer resolves is skipped, and ``restore`` puts every original back.

Spans live in memory as ``[layer, start_ns, end_ns, parent, instance]`` and
are written out by ``write_spans`` once the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Iterable

# (metric name, module, attribute path); the kernel sits behind matching._kernel
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("cli.run", "sdmatch.cli", "run"),
    ("solve.solve", "sdmatch.solve", "solve"),
    ("graph.parse_instance", "sdmatch.graph", "parse_instance"),
    ("graph.serialize_solution", "sdmatch.graph", "serialize_solution"),
    ("graph.BipartiteGraph.from_edges", "sdmatch.graph", "BipartiteGraph.from_edges"),
    ("graph.BipartiteGraph.without_edges", "sdmatch.graph", "BipartiteGraph.without_edges"),
    ("matching.max_matching", "sdmatch.matching", "max_matching"),
    ("matching.has_x_saturating_matching", "sdmatch.matching", "has_x_saturating_matching"),
    ("matching.csr_build", "sdmatch.matching", "_csr"),
    ("matching.max_matching_csr", "sdmatch.matching", "_kernel.max_matching_csr"),
    ("flow.gf_factor", "sdmatch.flow", "gf_factor"),
    ("flow.feasible_flow", "sdmatch.flow", "feasible_flow"),
    ("coloring.two_color_with_anchor", "sdmatch.coloring", "two_color_with_anchor"),
    ("coloring.konig_color", "sdmatch.coloring", "konig_color"),
    ("lebensold.lebensold_condition", "sdmatch.lebensold", "lebensold_condition"),
    ("lebensold.k_disjoint_saturating", "sdmatch.lebensold", "k_disjoint_saturating"),
    ("reductions.reduce_3sat_to_sdm", "sdmatch.reductions", "reduce_3sat_to_sdm"),
    ("reductions.decode_spair_to_assignment", "sdmatch.reductions", "decode_spair_to_assignment"),
)

# layers whose results are counted: the predicate marks a "hit"
OUTCOMES: dict[str, Callable[[Any], bool]] = {
    "flow.gf_factor": lambda result: result is not None,
    "matching.has_x_saturating_matching": lambda result: result is False,
}

START, END, PARENT = 1, 2, 3


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.layers: list[str] = []
        self.spans: list[list[int]] = []
        self.hits: Counter[str] = Counter()
        self.instance = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def begin_instance(self, instance: int) -> None:
        self.instance = instance
        self._stack.clear()

    def end_instance(self) -> None:
        """Close spans left open by an interrupt (a time-out or a crash)."""
        now = self.clock()
        for span in self.spans:
            if span[END] == 0:
                span[END] = now
        self._stack.clear()

    def wrap(self, layer: str, fn: Callable) -> Callable:
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        outcome = OUTCOMES.get(layer)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer_id, clock(), 0, stack[-1] if stack else -1, self.instance])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = clock()
                if stack and stack[-1] == idx:
                    stack.pop()
            if outcome is not None and outcome(result):
                self.hits[layer] += 1
            return result

        return traced

    def install(self, layers: Iterable[tuple[str, str, str]] = LAYERS) -> list[str]:
        """Wrap every layer that resolves; return the names wrapped."""
        installed = []
        for layer, module_name, path in layers:
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            if isinstance(owner, type):
                self._patch_method(layer, owner, attr)
            else:
                self._patch_everywhere(layer, getattr(owner, attr))
            installed.append(layer)
        return installed

    def _patch_method(self, layer: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(self.wrap(layer, raw.__func__))
        else:
            replacement = self.wrap(layer, raw)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def _patch_everywhere(self, layer: str, original: Callable) -> None:
        traced = self.wrap(layer, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "sdmatch" or name.startswith("sdmatch.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            handle.write("instance\tlayer\tstart_ns\tend_ns\tparent\n")
            for layer_id, start, end, parent, instance in self.spans:
                handle.write(f"{instance}\t{self.layers[layer_id]}\t{start}\t{end}\t{parent}\n")


def self_times(spans: list[list[int]]) -> list[int]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_totals(tracer: Tracer) -> dict[str, tuple[int, int]]:
    """Layer -> (calls, self time in ns) over every span recorded."""
    totals: dict[str, list[int]] = {layer: [0, 0] for layer in tracer.layers}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        entry = totals[tracer.layers[span[0]]]
        entry[0] += 1
        entry[1] += own
    return {layer: (calls, ns) for layer, (calls, ns) in totals.items()}
