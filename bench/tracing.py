"""Spans around the calls into gpforce's modules, recorded from outside.

The program is not edited: `patched` swaps the module attributes through
which one layer calls the next for wrappers that time each call, and puts
the originals back afterwards. A span keeps its name, start, end and the
span that was open when it began; a layer's self time is its duration minus
the durations of the spans directly under it.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Totals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


# spans of these names only enter the totals: hundreds of thousands of
# definition checks per pass would otherwise fill memory and the trace file
TOTALS_ONLY = frozenset({"matchings.count"})


class Tracer:
    """Spans of one pass, plus per-name totals in `stats`."""

    def __init__(self):
        self.stats: dict[str, Totals] = {}
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def get(self, name: str) -> Totals:
        return self.stats.get(name, Totals())

    def wrap(self, name: str, fn, items=None):
        """fn wrapped to record one span per call; items(result) is added to
        the name's item count when given."""
        keep = name not in TOTALS_ONLY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            span_id = None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals = self.stats.setdefault(name, Totals())
                totals.calls += 1
                totals.total_s += duration
                totals.self_s += duration - frame[1]
                if keep:
                    self.spans.append((span_id, parent, name, start, end))
            if items is not None:
                totals.items += items(result)
            return result

        return traced


# (module, attribute, span name, item counter): every place where one layer
# reaches another through a module attribute on the paths the workloads take
FULL_TARGETS = (
    ("gpforce.polynomial", "enumerate_perfect_matchings", "matchings.enumerate", None),
    ("gpforce.forcing", "count_matchings_containing", "matchings.count", None),
    ("gpforce.forcing", "enumerate_alternating_cycles", "forcing.cycles", len),
    ("gpforce.cli", "enumerate_alternating_cycles", "forcing.cycles", len),
    ("gpforce.forcing", "forcing_number_by_hitting_set", "forcing.hitting_set", None),
    ("gpforce.forcing", "forcing_number_by_subset_search", "forcing.subset_search", None),
    ("gpforce.cli", "max_disjoint_alternating_cycles", "forcing.packing", None),
    ("gpforce.polynomial", "forcing_numbers_map", "forcing.map", None),
    ("gpforce.cli", "matching_orbits", "polynomial.orbits", len),
    ("gpforce.tables", "matching_orbits", "polynomial.orbits", len),
    ("gpforce.tables", "check_table", "tables.check", None),
)

# the light trace times only the fan-out, one span per table or poly call
MAP_TARGETS = (
    ("gpforce.polynomial", "forcing_numbers_map", "forcing.map", None),
)


@contextmanager
def patched(tracer: Tracer, targets):
    """Route the given module attributes through tracer wrappers."""
    saved = []
    try:
        for module_name, attr, name, items in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, items))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
