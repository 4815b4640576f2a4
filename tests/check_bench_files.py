"""Check that committed ``BENCH_*.json`` files name only what BENCHMARK.json lists.

Usage, from the root of the repository::

    python3 tests/check_bench_files.py

Every ``BENCH_*.json`` at the root records measurements of ``perfbench/run.py``
in one layout::

    {
      "claim": {"workload": W, "metric": M} or null,
      "workloads": {
        W: {
          "pairs": [{"seed": ..., "seconds": ..., "order": [...],
                     "parent": {M: value, ...}, "change": {M: value, ...}}],
          "summary": {M: {"parent": {...}, "change": {...}, "wins": ...}}
        }
      },
      "traced": {W: [{"seed": ..., "seconds": ..., "order": [...],
                      "parent": {M or L: value}, "change": {M or L: value}}]}
    }

W is a workload, M an end-to-end metric and L a per-layer metric of
BENCHMARK.json.  The check reads only BENCHMARK.json and the files; it runs
nothing.  It exits 1, naming each file and name, when a file is not valid
JSON, lacks ``workloads``, or names a workload or metric that BENCHMARK.json
does not list; traced runs report per-layer metrics, so those may also name
per-layer metrics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def problems(doc: dict, workloads: set, end_to_end: set, per_layer: set):
    """Each name in ``doc`` that BENCHMARK.json does not list, as a message."""

    def names(where: str, got, allowed: set, kind: str):
        for name in got:
            if name not in allowed:
                yield f"{where}: {kind} {name!r} is not in BENCHMARK.json"

    if not isinstance(doc.get("workloads"), dict):
        yield "no 'workloads' object"
        return
    claim = doc.get("claim")
    if claim is not None:
        yield from names("claim", [claim.get("workload")], workloads, "workload")
        metric = [claim.get("metric")]
        yield from names("claim", metric, end_to_end, "end-to-end metric")
    yield from names("workloads", doc["workloads"], workloads, "workload")
    for workload, runs in doc["workloads"].items():
        for k, pair in enumerate(runs.get("pairs", [])):
            for side in ("parent", "change"):
                where = f"{workload} pair {k} {side}"
                got = pair.get(side, {})
                yield from names(where, got, end_to_end, "end-to-end metric")
        summary = runs.get("summary", {})
        where = f"{workload} summary"
        yield from names(where, summary, end_to_end, "end-to-end metric")
    traced = doc.get("traced", {})
    yield from names("traced", traced, workloads, "workload")
    for workload, runs in traced.items():
        for k, run in enumerate(runs):
            for side in ("parent", "change"):
                where = f"traced {workload} run {k} {side}"
                got = run.get(side, {})
                yield from names(where, got, end_to_end | per_layer, "metric")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    failed = False
    files = sorted(ROOT.glob("BENCH_*.json"))
    for path in files:
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            found = [f"not valid JSON: {exc}"]
        else:
            found = list(problems(doc, workloads, end_to_end, per_layer))
        for message in found:
            print(f"{path.name}: {message}")
        failed = failed or bool(found)
    print(f"{len(files)} BENCH_*.json file(s) checked")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
