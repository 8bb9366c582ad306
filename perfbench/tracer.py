"""Span tracer that instruments cobalt from outside the package.

Each site is a public callable at the attribute where its caller looks it
up (``cobalt.selector.leiden``, ``MultiLayerNetwork.subnetwork``, ...). The
tracer swaps in a wrapper for the duration of one traced operation and puts
the original back afterwards, so nothing under ``src/`` changes. A site that
no longer exists is reported as missing and skipped.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

# (span name, module, attribute path). One name may cover several sites when
# the same function is looked up from several modules.
SITES: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "cobalt.cli", "main"),
    ("io.read_score_table", "cobalt.io", "read_score_table"),
    ("io.network_to_dict", "cobalt.io", "network_to_dict"),
    ("io.network_from_dict", "cobalt.io", "network_from_dict"),
    ("io.trace_from_dict", "cobalt.io", "trace_from_dict"),
    ("io.dump_json", "cobalt.io", "dump_json"),
    ("model.validate_score_table", "cobalt.cli", "validate_score_table"),
    ("model.validate_score_table", "cobalt.pipeline", "validate_score_table"),
    ("model.subnetwork", "cobalt.model", "MultiLayerNetwork.subnetwork"),
    ("build.build_network", "cobalt.pipeline", "build_network"),
    ("pruning.prune_network", "cobalt.pipeline", "prune_network"),
    ("community.supragraph", "cobalt.community", "SupraGraph.__init__"),
    ("community.leiden", "cobalt.selector", "leiden"),
    ("community.modularity", "cobalt.community", "multislice_modularity"),
    ("selector.select", "cobalt.pipeline", "cobalt_init"),
    ("selector.select", "cobalt.pipeline", "cobalt_select"),
    ("selector.select", "cobalt.cli", "cobalt_select"),
    ("selector.layer_cost", "cobalt.selector", "layer_cost"),
    ("compare.bidirectional_f", "cobalt.selector", "bidirectional_f"),
    ("evaluation.sweep", "cobalt.cli", "missingness_sweep"),
    ("evaluation.regression_report", "cobalt.cli", "regression_report"),
    ("evaluation.cross_validate", "cobalt.evaluation", "cross_validate"),
    ("pipeline.run_selection", "cobalt.cli", "run_selection"),
    ("pipeline.run_selection", "cobalt.evaluation", "run_selection"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in SITES))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        # children run nested and one at a time, so their intervals are
        # disjoint parts of this span
        return self.end - self.start - self.child_time


class Tracer:
    """Records spans in memory while installed. ``returns`` collects
    (span name, return value) of the spans named in ``keep``, for counters
    computed after the operation."""

    def __init__(self, keep: Iterable[str] = ()):
        self.spans: list[Span] = []
        self.returns: list[tuple[str, Any]] = []
        self.missing: list[str] = []
        self.keep = frozenset(keep)
        self._stack: list[int] = []
        self._op = -1
        self._installed: list[tuple[Any, str, Any, bool]] = []

    def install(self, op: int) -> None:
        """Wrap every site that exists; sites that do not are noted missing."""
        self._op = op
        self.missing = []
        for name, module_name, path in SITES:
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if not callable(original):
                self.missing.append(f"{module_name}.{path}")
                continue
            owned = isinstance(owner, type) and attr in vars(owner)
            self._installed.append((owner, attr, original, owned))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._installed):
            if owned or not isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        keep = name in self.keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, self._op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_time += span.end - span.start
            if keep:
                self.returns.append((name, result))
            return result

        return traced

    def self_times(self, op: int) -> dict[str, tuple[float, int]]:
        """Self time and call count per span name within one operation."""
        totals = {name: [0.0, 0] for name in SPAN_NAMES}
        for span in self.spans:
            if span.op == op:
                totals[span.name][0] += span.self_time
                totals[span.name][1] += 1
        return {name: (t, c) for name, (t, c) in totals.items()}

    def to_dict(self) -> dict:
        return {
            "missing": self.missing,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "op": s.op,
                    "self": s.self_time,
                }
                for s in self.spans
            ],
        }
