"""Spans around the solver's layer boundaries, installed from outside the package.

``Tracer`` replaces public functions by wrappers under the names their
callers look them up by, and puts the originals back on exit.  Each call of
a stage function becomes a span (name, start, end, parent, and the solve it
belongs to).  The hot leaf calls (``int_det``, ``solve_exact`` and the two
evaluation kernels) would cost more to record one by one than they take, so
they add a call count and a total time to the span that called them.

Leaf times are the calling thread's CPU time.  ``track`` runs paths on a
thread pool, and a kernel call's wall time there also counts the turns other
threads take with the interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

ROOT = "pipeline.solve"

# (module, attribute, span name).  The stage functions are wrapped where
# ``pipeline`` looks them up, ``circuit_inequalities`` where ``mixed_cells`` does.
SPANS = (
    ("realhomotopy", "solve", ROOT),
    ("realhomotopy.pipeline", "build_cayley", "lattice.build_cayley"),
    ("realhomotopy.pipeline", "log_abs_lifting", "lattice.log_abs_lifting"),
    ("realhomotopy.pipeline", "enumerate_mixed_cells", "mixed_cells.enumerate_mixed_cells"),
    ("realhomotopy.mixed_cells", "circuit_inequalities", "mixed_cells.circuit_inequalities"),
    ("realhomotopy.pipeline", "certify", "certificate.certify"),
    ("realhomotopy.pipeline", "binomial_from_cell", "binomial.binomial_from_cell"),
    ("realhomotopy.pipeline", "solve_real", "binomial.solve_real"),
    ("realhomotopy.pipeline", "make_homotopy", "tracker.make_homotopy"),
    ("realhomotopy.pipeline", "select_t0", "tracker.select_t0"),
    ("realhomotopy.pipeline", "make_path", "tracker.make_path"),
    ("realhomotopy.pipeline", "track", "tracker.track"),
)
LEAVES = (
    ("realhomotopy.mixed_cells", "int_det", "lattice.int_det"),
    ("realhomotopy.mixed_cells", "solve_exact", "lattice.solve_exact"),
    ("realhomotopy._kernels", "h_scale", "kernels.h_scale"),
    ("realhomotopy._kernels", "jac_dlam", "kernels.jac_dlam"),
)


def _count_cells(counts, args, result):
    counts["cells"] += len(result.cells)
    counts["inequalities"] += len(result.inequalities)


def _count_pass(counts, args, result):
    counts["passes"] += int(result.verdict)


def _count_volume(counts, args, result):
    counts["volume"] += args[0].volume


def _count_starts(counts, args, result):
    counts["real_starts"] += len(result)


def _count_paths(counts, args, result):
    counts["paths"] += len(args[1])
    counts["converged"] += len(result)
    counts["steps"] += sum(s.steps for s in result)


def _count_singular(counts, args, result):
    counts["singular"] += result == 0


# Counters read from the arguments and result at a boundary.
OBSERVE = {
    "mixed_cells.enumerate_mixed_cells": _count_cells,
    "certificate.certify": _count_pass,
    "binomial.binomial_from_cell": _count_volume,
    "binomial.solve_real": _count_starts,
    "tracker.track": _count_paths,
    "lattice.int_det": _count_singular,
}


@dataclass
class Span:
    id: int
    solve: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: Counter = field(default_factory=Counter)
    # leaf name -> [calls, seconds]
    leaves: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0]))

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "id": self.id,
            "solve": self.solve,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "counts": dict(self.counts),
            "leaves": {k: list(v) for k, v in self.leaves.items()},
        }


class Tracer:
    """Wrap the layer functions while the ``with`` block runs.

    A name that no longer exists is listed in ``unmeasured`` and left alone.
    """

    def __init__(self, spans=SPANS, leaves=LEAVES):
        self.spans: list[Span] = []
        self.unmeasured: set[str] = set()
        self._targets = [(m, a, n, self._span) for m, a, n in spans]
        self._targets += [(m, a, n, self._leaf) for m, a, n in leaves]
        self._ids = itertools.count()
        # One stack for all threads: ``track`` runs paths on worker threads
        # while the calling thread waits, so a kernel call on any thread
        # belongs to the span on top.
        self._stack: list[Span] = []
        self._lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module_name, attr, name, wrap in self._targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.unmeasured.add(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _span(self, name, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span_id = next(self._ids)
            span = Span(
                id=span_id,
                solve=parent.solve if parent else span_id,
                name=name,
                parent=parent.id if parent else None,
                start=time.perf_counter(),
            )
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if observe:
                observe(span.counts, args, result)
            return result

        return wrapper

    def _leaf(self, name, fn):
        observe = OBSERVE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.thread_time()
            result = fn(*args, **kwargs)
            elapsed = time.thread_time() - start
            with self._lock:
                if self._stack:
                    span = self._stack[-1]
                    entry = span.leaves[name]
                    entry[0] += 1
                    entry[1] += elapsed
                    if observe:
                        observe(span.counts, args, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans and leaf calls cover.

    Child spans of one span run one after another on the calling thread, so
    their durations add up.  Leaf calls count in CPU time; on tracker worker
    threads they can overlap, hence the floor at zero.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {
        s.id: max(0.0, s.duration - covered[s.id] - sum(v[1] for v in s.leaves.values()))
        for s in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per layer, leaf calls included, summed over all spans."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name.split(".")[0]] += own[s.id]
        for leaf, (_, seconds) in s.leaves.items():
            out[leaf.split(".")[0]] += seconds
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int, candidates: int, overhead: float):
    """Per-layer metrics as ``(name, unit, value)``.

    Counts and times are per pass over the corpus; kernel times are CPU
    microseconds per call.
    """
    seconds: Counter = Counter()  # span or leaf name -> seconds
    counts: Counter = Counter()  # counter or leaf name -> count
    self_s: Counter = Counter()
    own = self_times(spans)
    for s in spans:
        seconds[s.name] += s.duration
        self_s[s.name] += own[s.id]
        counts.update(s.counts)
        for leaf, (calls, secs) in s.leaves.items():
            counts[leaf] += calls
            seconds[leaf] += secs

    def per_pass(*names: str, of: Counter = seconds) -> float:
        return sum(of[n] for n in names) / passes

    def call_us(leaf: str) -> float:
        return 1e6 * _ratio(seconds[leaf], counts[leaf])

    kernel_calls = counts["kernels.h_scale"] + counts["kernels.jac_dlam"]
    return [
        ("lattice.init_s", "s", per_pass("lattice.build_cayley", "lattice.log_abs_lifting")),
        ("lattice.int_det_calls", "count", per_pass("lattice.int_det", of=counts)),
        ("lattice.int_det_s", "s", per_pass("lattice.int_det")),
        ("lattice.solve_exact_calls", "count", per_pass("lattice.solve_exact", of=counts)),
        ("lattice.solve_exact_s", "s", per_pass("lattice.solve_exact")),
        ("mixed_cells.enumerate_self_s", "s", per_pass("mixed_cells.enumerate_mixed_cells", of=self_s)),
        ("mixed_cells.candidates", "count", candidates),
        ("mixed_cells.singular_skipped", "count", per_pass("singular", of=counts)),
        ("mixed_cells.cells", "count", per_pass("cells", of=counts)),
        ("mixed_cells.cell_yield", "ratio", _ratio(per_pass("cells", of=counts), candidates)),
        ("mixed_cells.circuits_s", "s", per_pass("mixed_cells.circuit_inequalities")),
        ("mixed_cells.inequalities", "count", per_pass("inequalities", of=counts)),
        ("certificate.certify_s", "s", per_pass("certificate.certify")),
        ("certificate.passes", "count", per_pass("passes", of=counts)),
        ("binomial.start_systems_s", "s", per_pass("binomial.binomial_from_cell", "binomial.solve_real")),
        ("binomial.real_starts", "count", per_pass("real_starts", of=counts)),
        ("binomial.real_start_yield", "ratio", _ratio(counts["real_starts"], counts["volume"])),
        ("tracker.select_t0_s", "s", per_pass("tracker.select_t0")),
        ("tracker.track_s", "s", per_pass("tracker.track")),
        ("tracker.paths", "count", per_pass("paths", of=counts)),
        ("tracker.paths_converged", "count", per_pass("converged", of=counts)),
        ("tracker.steps_accepted", "count", per_pass("steps", of=counts)),
        ("tracker.steps_per_path", "count", _ratio(counts["steps"], counts["converged"])),
        ("kernels.h_scale_calls", "count", per_pass("kernels.h_scale", of=counts)),
        ("kernels.h_scale_us", "us", call_us("kernels.h_scale")),
        ("kernels.jac_dlam_calls", "count", per_pass("kernels.jac_dlam", of=counts)),
        ("kernels.jac_dlam_us", "us", call_us("kernels.jac_dlam")),
        ("kernels.calls_per_step", "ratio", _ratio(kernel_calls, counts["steps"])),
        ("pipeline.solve_s", "s", per_pass(ROOT)),
        ("pipeline.self_s", "s", per_pass(ROOT, of=self_s)),
        ("pipeline.trace_overhead_frac", "frac", overhead),
    ]
