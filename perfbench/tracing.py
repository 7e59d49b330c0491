"""Span recorder that times the program's layers from outside.

`Tracer.install` replaces each layer function at the module attribute
its callers look it up under (for example `pmuplace.pipeline.solve_cover`
and `pmuplace.cover.optimal_count`) with a wrapper that records a span:
name, start, end and the index of the enclosing span. `restore` puts
the originals back. Spans stay in memory until the run writes them out.

A span's self time is its duration minus the time covered by its
direct children, so the self times of one pass's spans sum exactly to
the pass's duration.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import import_module

# (module the caller looks the name up in, attribute, metric prefix).
# Two entries may share a prefix when two callers hold the same function.
TARGETS = (
    ("pmuplace.pipeline", "load_case", "cases.load_case"),
    ("pmuplace.pipeline", "build_ybus", "network.build_ybus"),
    ("pmuplace.pipeline", "topological_adjacency",
     "network.topological_adjacency"),
    ("pmuplace.pipeline", "solve_power_flow", "powerflow.solve_power_flow"),
    ("pmuplace.pipeline", "p_theta_jacobian", "powerflow.p_theta_jacobian"),
    ("pmuplace.pipeline", "resistance_matrix", "distance.resistance_matrix"),
    ("pmuplace.pipeline", "electrical_adjacency",
     "distance.electrical_adjacency"),
    ("pmuplace.cover", "optimal_count", "cover.optimal_count"),
    ("pmuplace.pipeline", "solve_cover", "cover.solve_cover"),
    ("pmuplace.pipeline", "enumerate_optima", "cover.enumerate_optima"),
    ("pmuplace.pipeline", "compute_svd", "spectral.compute_svd"),
    ("pmuplace.pipeline", "rank_vectors", "spectral.rank_vectors"),
    ("pmuplace.pipeline", "assign_buses", "spectral.assign_buses"),
    ("pmuplace.pipeline", "average_profile", "report.average_profile"),
    ("pmuplace.report", "emit_report", "report.emit_report"),
    ("pmuplace.pipeline", "run", "pipeline.run"),
    ("pmuplace", "run", "pipeline.run"),
    ("pmuplace.cli", "run", "pipeline.run"),
    ("pmuplace.cli", "main", "cli.main"),
)

LAYERS = tuple(dict.fromkeys(prefix for _, _, prefix in TARGETS))
PASS = "bench.pass"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    # Exact counts read from return values, per counter name.
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self._count(name, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, result) -> None:
        if name == "powerflow.solve_power_flow":
            self.counts["powerflow.iterations"] += result.iterations
        elif name == "cover.solve_cover":
            self.counts["cover.pmu_count"] += result.count
        elif name == "cover.enumerate_optima":
            self.counts["cover.enumerated"] += len(result)

    def install(self) -> None:
        """Wrap every target; a name the program no longer has raises
        AttributeError, so a moved layer cannot vanish from the trace."""
        for module_name, attr, prefix in TARGETS:
            module = import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(prefix, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, child_time):
            totals[span.name] += span.end - span.start - covered
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span.name] += 1
        return totals

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]
