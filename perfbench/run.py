"""End-to-end benchmark of ``realhomotopy.solve`` over seeded corpora.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload dense_cells --seed 1 --seconds 30 --trace 0

A run is a single-threaded closed loop: one client solves the corpus of the
workload (see ``workloads.py``) system by system, the next solve starting
when the previous one returns.  The number of passes over the corpus is
fixed per workload and ``--seconds``, never by the host's speed, so every run
times the same solves.  ``PASS_SECONDS`` holds the length of one pass on the
reference host (2 vCPU Xeon, shared VM), which makes a run last about
``--seconds`` there.  Every returned report is checked by ``checks.py``; a
solve that raises is recorded with its type and stage and the loop goes on.

The timings are each system's best solve time over the passes of the run.
On a shared host the same solve runs up to twice as slow while other tenants
load the CPU, in phases of a fraction of a second to minutes; a system's
fastest solve is the one that met the least of them.  ``solve_s_p50`` is the
median over the corpus of these best times, ``solve_s_tail`` their p90
(nearest rank, so the slowest system when the corpus is small), and
``systems_per_s`` the corpus size over their sum.  The plain median and
maximum over every solve are printed beside them.  A one-time cost, such as
compiling a kernel on its first call, drops out of the best times; it shows
in ``setup_s``, whose probe makes the corpus's first solve in a fresh process
(on ``track_forced`` the cubic/conic, which tracks paths).

Run as a program, the benchmark pins itself to one CPU before it imports
the solver, and moves to the next allowed CPU for each pass.  ``track`` runs
paths on a thread pool; spread over two shared CPUs its threads hand the
interpreter lock back and forth at the mercy of the other CPU's load, which
made a pass of ``track_forced`` vary by a fifth.  The load on the two CPUs
comes and goes independently, so alternating them gives every system more
chances at a quiet CPU.  The solver's configuration, thread pool included,
stays the default.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates an untraced and a traced pass, reports the per-layer metrics from
the traced passes and writes every span to ``perfbench/out/``.

Lines before the last describe the run (environment, input size, metrics
with units, failures); the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "realhomotopy").is_dir():
    sys.exit(f"no src/realhomotopy under {ROOT}: run from a checkout of the repository")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

NPROC = os.cpu_count()
# The CPUs the passes take turns on; empty when imported, which pins nothing.
PASS_CPUS: list[int] = []
if __name__ == "__main__":
    # Before the solver's imports, so every thread it starts inherits the pin.
    PASS_CPUS = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {PASS_CPUS[0]})

_START = time.perf_counter()
import realhomotopy  # noqa: E402

_IMPORTED = time.perf_counter()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 9
TAIL_PERCENTILE = 90
# Best-of needs a few chances at a quiet host.
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
# Seconds of one untraced pass over the corpus on the reference host.
PASS_SECONDS = {"dense_cells": 0.6, "track_forced": 1.5, "certified_scaled": 1.3}

clock = time.perf_counter


@dataclasses.dataclass
class Tally:
    """Outcome counts of the solves of one run."""

    attempted: int = 0
    reports: int = 0
    bad_reports: int = 0
    paths: int = 0
    converged: int = 0
    errors: Counter = dataclasses.field(default_factory=Counter)
    check_failures: Counter = dataclasses.field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + self.bad_reports

    def outcome_metrics(self) -> list[tuple[str, str, float]]:
        """Success shares; a share of nothing is 1 (dense_cells tracks no path)."""
        return [
            ("solve_ok_frac", "frac", self.reports / self.attempted),
            ("path_ok_frac", "frac", self.converged / self.paths if self.paths else 1.0),
            ("check_ok_frac", "frac", 1.0 - self.bad_reports / self.reports if self.reports else 1.0),
        ]

    def add_error(self, exc: Exception) -> None:
        self.attempted += 1
        self.errors[f"{type(exc).__name__}@{error_stage(exc)}"] += 1

    def add_report(self, item: workloads.Item, report) -> None:
        self.attempted += 1
        self.reports += 1
        self.paths += sum(report.start_solutions)
        self.converged += len(report.solutions)
        failed = checks.check_report(item, report)
        if failed:
            self.bad_reports += 1
            self.check_failures.update(f"{item.label}:{name}" for name in failed)


def error_stage(exc: Exception) -> str:
    """The stage the pipeline tagged, else the innermost solver frame."""
    stage = getattr(exc, "stage", None)
    if stage:
        return stage
    frames = [
        f
        for f in traceback.extract_tb(exc.__traceback__)
        if "realhomotopy" in Path(f.filename).parts and not f.name.startswith("<")
    ]
    return f"{Path(frames[-1].filename).stem}.{frames[-1].name}" if frames else "unknown"


def solve_once(item: workloads.Item, tally: Tally) -> float:
    """Solve one system, record its outcome, and return the solve's wall time."""
    start = clock()
    try:
        report = realhomotopy.solve(item.system, item.config)
    except Exception as exc:  # every failure is recorded and the run goes on
        elapsed = clock() - start
        tally.add_error(exc)
        return elapsed
    elapsed = clock() - start
    tally.add_report(item, report)
    return elapsed


def pass_count(workload: str, seconds: float) -> int:
    """Passes that take about ``seconds`` on the reference host, at least one."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def pin_pass(index: int) -> None:
    """Run pass ``index`` on the next CPU in turn, when running as a program."""
    if PASS_CPUS:
        os.sched_setaffinity(0, {PASS_CPUS[index % len(PASS_CPUS)]})


def tail(samples: list[float]) -> tuple[int, float]:
    """The nearest-rank ``TAIL_PERCENTILE`` of ``samples``: its rank and value."""
    ordered = sorted(samples)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return rank, ordered[rank - 1]


def setup_seconds(workload: str, seed: int) -> float:
    """Import time plus the first solve of the corpus, in a fresh process."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_probe(workload: str, seed: int) -> None:
    item = workloads.build(workload, seed)[0]
    start = clock()
    try:
        realhomotopy.solve(item.system, item.config)
    except Exception:  # the timed run records the failure; set-up time still counts
        pass
    print(_IMPORTED - _START + clock() - start)


def environment(seed: int, items) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernels_backend": realhomotopy._kernels.BACKEND,
        "nproc": NPROC,
        "pass_cpus": PASS_CPUS or sorted(os.sched_getaffinity(0)),
        "seed": seed,
        "solver_config": dataclasses.asdict(items[0].config),
    }


def input_size(items) -> str:
    return f"{len(items)} systems, {sum(it.candidates() for it in items)} candidates per pass"


def outcome_lines(tally: Tally) -> list[str]:
    lines = [
        f"solve_error_frac = {sum(tally.errors.values())}/{tally.attempted}",
        f"path_failure_frac = {tally.paths - tally.converged}/{tally.paths}",
        f"check_failure_frac = {tally.bad_reports}/{tally.reports}",
    ]
    lines += [f"  error {k} x{v}" for k, v in sorted(tally.errors.items())]
    lines += [f"  check failed {k} x{v}" for k, v in sorted(tally.check_failures.items())]
    return lines


def timed_run(workload: str, seed: int, seconds: float, items):
    tally = Tally()
    passes = max(pass_count(workload, seconds), MIN_PASSES)
    setup: list[float] = []
    per_pass: list[list[float]] = []
    for i in range(passes):
        pin_pass(i)
        # Spread the set-up probes over the run, so they meet the host as the passes do.
        while len(setup) < SETUP_REPEATS * (i + 1) // passes:
            setup.append(setup_seconds(workload, seed))
        per_pass.append([solve_once(item, tally) for item in items])
    best = [min(times) for times in zip(*per_pass)]
    rank, tail_value = tail(best)
    every = [t for times in per_pass for t in times]
    metrics = [
        ("setup_s", "s", statistics.median(setup)),
        ("solve_s_p50", "s", statistics.median(best)),
        ("solve_s_tail", "s", tail_value),
        ("systems_per_s", "1/s", len(best) / sum(best)),
        ("peak_rss_mb", "MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),
    ] + tally.outcome_metrics()
    lines = [
        f"input: {input_size(items)}, {tally.paths // passes} paths per pass; "
        f"{passes} passes, {len(every)} solves",
        f"timings use each system's best of {passes} solves; solve_s_tail is "
        f"p{TAIL_PERCENTILE} of {len(best)} systems (rank {rank})",
        f"every solve: median {statistics.median(every):.6g} s, max {max(every):.6g} s",
        f"pass seconds: {', '.join(f'{sum(times):.3f}' for times in per_pass)}",
        f"setup_s samples: {', '.join(f'{v:.4f}' for v in setup)}",
    ]
    return metrics, lines + outcome_lines(tally), tally


def traced_run(workload: str, seed: int, seconds: float, items, env: dict):
    tally = Tally()
    tracer = tracing.Tracer()
    labels: dict[int, str] = {}
    plain = traced = 0.0
    # Half the passes of a timed run each way, so both runs last about as long;
    # at least two each way, since the overhead compares their totals.
    passes = max(2, pass_count(workload, seconds) // 2)
    for i in range(passes):
        pin_pass(i)
        plain += sum(solve_once(item, tally) for item in items)
        with tracer:
            for item in items:
                traced += solve_once(item, tally)
                if tracer.spans and tracer.spans[-1].name == tracing.ROOT:
                    labels[tracer.spans[-1].solve] = item.label
    candidates = sum(it.candidates() for it in items)
    metrics = tracing.layer_metrics(tracer.spans, passes, candidates, traced / plain - 1.0)
    path = write_spans(workload, seed, env, tracer, labels)

    solve_s = sum(s.duration for s in tracer.spans if s.name == tracing.ROOT)
    shares = tracing.layer_self_times(tracer.spans)
    lines = [
        f"input: {input_size(items)}; {passes} traced and {passes} untraced passes",
        "self time share of pipeline.solve_s: "
        + ", ".join(f"{k} {v / solve_s:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
        f"unmeasured: {', '.join(sorted(tracer.unmeasured)) or 'none'}",
        f"spans written to {path.relative_to(ROOT)}",
    ]
    lines += per_item_lines(tracer.spans, labels, passes)
    return metrics, lines + outcome_lines(tally), tally


def per_item_lines(spans, labels: dict[int, str], passes: int) -> list[str]:
    """Per-system means over the traced passes: solve, cell enumeration, tracking."""
    rows: dict[str, Counter] = {}
    for s in spans:
        row = rows.setdefault(labels.get(s.solve, "?"), Counter())
        if s.name == tracing.ROOT:
            row["solve_s"] += s.duration
        elif s.name == "mixed_cells.enumerate_mixed_cells":
            row["mixed_cells_s"] += s.duration
        row["steps"] += s.counts["steps"]
        row["kernel_calls"] += sum(v[0] for k, v in s.leaves.items() if k.startswith("kernels."))
    return [
        f"  {label}: solve {r['solve_s'] / passes:.4f} s, mixed_cells {r['mixed_cells_s'] / passes:.4f} s, "
        f"{r['steps'] / passes:.0f} steps, {r['kernel_calls'] / passes:.0f} kernel calls"
        for label, r in rows.items()
    ]


def write_spans(workload: str, seed: int, env: dict, tracer, labels) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        fh.write(json.dumps({"env": env, "unmeasured": sorted(tracer.unmeasured)}) + "\n")
        for span in tracer.spans:
            rec = span.record()
            rec["system"] = labels.get(span.solve)
            fh.write(json.dumps(rec) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    items = workloads.build(args.workload, args.seed)
    env = environment(args.seed, items)
    print(json.dumps({"workload": args.workload, "env": env}))
    if args.trace:
        metrics, lines, tally = traced_run(args.workload, args.seed, args.seconds, items, env)
    else:
        metrics, lines, tally = timed_run(args.workload, args.seed, args.seconds, items)
    for line in lines:
        print(line)
    for name, unit, value in metrics:
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.bad_reports == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
