"""Layer spans for the traced run.

The program is not edited: each hook replaces a public function at the
name its caller binds (``frisolve.cli.load_instance``,
``frisolve.solver.prune_to_minimal``, ...) with a wrapper that records a
span, and ``uninstall`` puts the originals back. A hooked name that the
program no longer has is reported as absent.

A span is [name, start, end, parent, instance, busy, count]. busy is the
span's own duration, except for calls too frequent to keep one span each
(objective evaluations, candidate-stream steps): those add their time and
count to one span per parent. Spans of one CLI call share its instance id.
A span's self time is its busy time minus the busy time of its children;
the self times of all spans of a call add up to the call's duration.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, INSTANCE, BUSY, COUNT = range(7)


def _length(value) -> int:
    return len(value)


def _grid_points(grid) -> int:
    return getattr(grid, "total_points", 0)


# (module, attribute, span name, count of the result or None)
SPAN_HOOKS = (
    ("frisolve.cli", "load_instance", "files.load", None),
    ("frisolve.cli", "build_report_data", "files.report", None),
    ("frisolve.cli", "render_report_json", "files.report", None),
    ("frisolve.cli", "solve", "solver", None),
    ("frisolve.cli", "solve_unpruned", "solver", None),
    ("frisolve.cli", "brute_force_minimal", "oracle.minimal", None),
    ("frisolve.cli", "brute_force_optimum", "oracle.optimum", None),
    ("frisolve.solver", "compute_index_sets", "feasibility", None),
    ("frisolve.solver", "check_feasibility", "feasibility", None),
    ("frisolve.solver", "build_candidates", "structure.candidates", _length),
    ("frisolve.solver", "prune_to_minimal", "structure.prune", _length),
)
# Calls that are only counted: their spans have no busy time, so their time
# stays with the calling span.
COUNT_HOOKS = (
    ("frisolve.oracle", "build_grid", "oracle.grid_points", _grid_points),
    ("frisolve.oracle", "is_member", "core.is_member_calls", None),
)
STREAM_HOOK = ("frisolve.solver", "enumerate_candidates", "structure.candidates")
OBJECTIVES_HOOK = ("frisolve.cli", "OBJECTIVES", "objective")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = None
        self.passes = 0
        self.absent: set[str] = set()
        self._restore: list = []
        self._pooled: dict[tuple[int, str], int] = {}

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.instance, 0.0, 0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, sid: int) -> None:
        span = self.spans[sid]
        span[END] = perf_counter()
        span[BUSY] = span[END] - span[START]
        self.stack.pop()

    def add(self, name: str, start: float, end: float, count: int) -> None:
        """Fold one short call into the pooled span of its parent."""
        parent = self.stack[-1] if self.stack else None
        sid = self._pooled.get((parent, name))
        if sid is None:
            sid = self._pooled[(parent, name)] = len(self.spans)
            self.spans.append([name, start, end, parent, self.instance, 0.0, 0])
        span = self.spans[sid]
        span[END] = end
        span[BUSY] += end - start
        span[COUNT] += count

    # -- hooks ---------------------------------------------------------

    def _replace(self, module_name: str, attr: str, make):
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            self.absent.add(f"{module_name}.{attr}")
            return
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._restore.append((module, attr, original))

    def install(self) -> None:
        for module, attr, name, count in SPAN_HOOKS:
            self._replace(module, attr, lambda fn, name=name, count=count: self._span(fn, name, count))
        for module, attr, name, count in COUNT_HOOKS:
            self._replace(module, attr, lambda fn, name=name, count=count: self._counted(fn, name, count))
        module, attr, name = STREAM_HOOK
        self._replace(module, attr, lambda fn: self._stream(fn, name))
        module, attr, name = OBJECTIVES_HOOK
        self._replace(module, attr, lambda table: {
            key: self._pooled_call(fn, name) for key, fn in table.items()
        })

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def _span(self, fn, name, count):
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                self.spans[sid][COUNT] += count(result)
            return result
        return wrapper

    def _counted(self, fn, name, count):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            now = perf_counter()
            self.add(name, now, now, 1 if count is None else count(result))
            return result
        return wrapper

    def _pooled_call(self, fn, name):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, start, perf_counter(), 1)
        return wrapper

    def _stream(self, fn, name):
        """Time the call that sets up a candidate stream and each step of
        it; the steps interleave with the consumer's own work."""
        def wrapper(*args, **kwargs):
            start = perf_counter()
            stream = fn(*args, **kwargs)
            self.add(name, start, perf_counter(), 0)
            return self._steps(iter(stream), name)
        return wrapper

    def _steps(self, stream, name):
        while True:
            start = perf_counter()
            try:
                item = next(stream)
            except StopIteration:
                self.add(name, start, perf_counter(), 0)
                return
            self.add(name, start, perf_counter(), 1)
            yield item

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        child_busy = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                child_busy[span[PARENT]] += span[BUSY]
        totals: dict[str, float] = defaultdict(float)
        for sid, span in enumerate(self.spans):
            totals[span[NAME]] += span[BUSY] - child_busy[sid]
        return totals

    def span_counts(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for span in self.spans:
            totals[span[NAME]] += span[COUNT]
        return totals
