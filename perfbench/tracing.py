"""Spans and counts recorded around calls into dynamokit's layers.

The benchmark measures each layer from outside: it replaces the public
functions of the layer modules with wrappers that record a span per call, and
puts the originals back afterwards.  Nothing in the package itself changes.

A span is ``[name, start, end, parent, request]``: ``name`` is
``<layer>.<function>``, the times come from ``time.perf_counter`` (the
system-wide monotonic clock on Linux, so spans recorded in a child process
line up with the parent's), ``parent`` is the index of the enclosing span or
-1, and ``request`` is the request id current when the span opened.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Modules whose public functions are wrapped.  A name that one module binds
# from another (cli's writers from reports, tube's stencils from finitediff)
# is wrapped there too, under the name of the layer that defines it, because
# callers reach it through that binding.
LAYER_MODULES = ("cli", "maps", "frenet", "tube", "finitediff", "filament", "reports")

# Called once per CSV cell and per JSON element; a span per call would swamp
# the writers' own time.  Their cost stays in the writer that calls them.
UNWRAPPED = frozenset({"reports.format_float", "reports.json_dumps"})

# Layers whose self time is reported as a share of the request.  "import" is
# the `import dynamokit` of a CLI child, "process" the rest of a child's
# lifetime (interpreter start-up and exit).
LAYERS = ("import", "process", "cli", "frenet", "maps", "tube", "finitediff", "filament", "reports")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_integrate_frame(tracer, args, kwargs, result):
    tracer.count("frenet.steps", len(result.samples) - 1)
    tracer.count("frenet.reorth_events", len(result.reorthonormalizations))
    if tracer.probe_call is None:
        tracer.probe_call = (args, kwargs)


def _count_growth(tracer, args, kwargs, result):
    tracer.count("maps.iterations_attempted", _arg(args, kwargs, 2, "n"))


def _count_csv(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    rows = len(_arg(args, kwargs, 2, "rows"))
    tracer.count("reports.write_csv.rows", rows)
    tracer.count("reports.write_csv.bytes", os.path.getsize(path))
    if str(path).endswith("_growth.csv"):
        tracer.count("maps.table_rows", rows)


def _count_svg(tracer, args, kwargs, result):
    tracer.count("reports.write_svg_polyline.points", len(_arg(args, kwargs, 1, "xs")))
    tracer.count("reports.write_svg_polyline.bytes",
                 os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_json(tracer, args, kwargs, result):
    tracer.count("reports.write_json.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


COUNTERS = {
    "frenet.integrate_frame": _count_integrate_frame,
    "maps.growth_rate": _count_growth,
    "maps.growth_rate_per_step": _count_growth,
    "reports.write_csv": _count_csv,
    "reports.write_svg_polyline": _count_svg,
    "reports.write_json": _count_json,
}


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.request = -1
        self.probe_call = None
        self.bytes_per_sample = 0.0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}

    def count(self, key: str, amount: int) -> None:
        self.counts[self.request][key] += amount

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around the body of a ``with`` block; yields its index."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, in place."""
        for short in LAYER_MODULES:
            module = importlib.import_module(f"dynamokit.{short}")
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("dynamokit."):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                if name in UNWRAPPED:
                    continue
                self._originals.setdefault(name, value)
                self._installed.append((module, attr, value))
                setattr(module, attr, self._wrap(value, name))

    def uninstall(self) -> None:
        """Put back every function that install() replaced."""
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    def memory_probe(self) -> None:
        """Measure bytes per retained sample of the first integrate_frame call.

        The call is replayed unwrapped under tracemalloc after the traced
        requests, so allocation tracing slows no timed span.  Leaves
        bytes_per_sample at 0 when integrate_frame was not called.
        """
        if self.probe_call is None:
            return
        args, kwargs = self.probe_call
        integrate = self._originals["frenet.integrate_frame"]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            trajectory = integrate(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.bytes_per_sample = peak / len(trajectory.samples)

    def adopt(self, spans: list[list], parent: int, counts: dict[str, int],
              bytes_per_sample: float) -> None:
        """Graft what a child process's tracer recorded under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, child_parent, _request in spans:
            self.spans.append([name, start, end,
                               parent if child_parent < 0 else child_parent + offset,
                               self.request])
        for key, amount in counts.items():
            self.count(key, amount)
        if not self.bytes_per_sample:
            self.bytes_per_sample = bytes_per_sample


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Computed as the sum of the uncovered gaps, so it is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _request in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_name, start, end, _parent, _request) in enumerate(spans):
        own = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            if c_start > reach:
                own += min(c_start, end) - reach
            reach = min(max(reach, c_end), end)
        result.append(own + (end - reach))
    return result


def per_request(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """For each request id: per span name, its total time, self time and calls."""
    table: dict[int, dict[str, dict[str, float]]] = defaultdict(
        lambda: defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
    )
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _parent, request = span
        entry = table[request][name]
        entry["total"] += end - start
        entry["self"] += own
        entry["calls"] += 1
    return table
