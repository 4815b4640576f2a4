"""Dump and compare the solver's reports on the 503 reference solves.

Usage, from the root of the repository::

    python3 tests/reference_reports.py dump OUT.json
    python3 tests/reference_reports.py compare A.json B.json

The reference solves are the 279 benchmark corpus systems (the three
workloads of ``perfbench/workloads.py`` at seeds 1-3) and the 224 held-out
forced systems of ``helpers.held_out_forced``.  ``dump`` records, per solve,
the raised exception if any, the start-solution counts, every converged
endpoint with its accepted steps and residual, and every failed path's status
and message.  Floats keep their exact value in JSON.

``compare`` prints, per family, how many reports differ at all, and among
them the changes in solution count, failure status, accepted steps and
failure message (read up to its ``lam``), and the largest relative endpoint
difference.  A change to the tracker's arithmetic that moves only last bits
shows as differing reports with every other column zero.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from helpers import held_out_forced  # noqa: E402
from realhomotopy import SolverConfig, solve  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2, 3)
FORCED = SolverConfig(force=True)


def reference_solves():
    """``(family, label, system, config)`` for every reference solve."""
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for item in workloads.build(workload, seed):
                yield workload, f"{item.label}@{seed}", item.system, item.config
    for label, system in held_out_forced():
        family = f"held_out_n{system.n}"
        yield family, label, system, FORCED


def report_record(system, config) -> dict:
    """The parts of one solve's outcome that the comparison reads."""
    try:
        report = solve(system, config)
    except Exception as exc:  # a raised solve is an outcome to compare
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "starts": list(report.start_solutions),
        "solutions": [
            {"point": list(s.point), "steps": s.steps, "residual": s.residual}
            for s in report.solutions
        ],
        "failures": [
            [f.cell_index, f.path_index, f.status, f.message] for f in report.failures
        ],
    }


def dump(out: Path) -> None:
    records = [
        {"family": family, "label": label, **report_record(system, config)}
        for family, label, system, config in reference_solves()
    ]
    out.write_text(json.dumps(records, indent=0))
    converged = sum(len(r.get("solutions", ())) for r in records)
    failed = sum(len(r.get("failures", ())) for r in records)
    raised = sum("error" in r for r in records)
    print(
        f"{len(records)} solves: {converged} converged paths, "
        f"{failed} failed paths, {raised} raised"
    )


def _up_to_lam(message: str) -> str:
    return message.split("lam=")[0]


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare(path_a: Path, path_b: Path) -> None:
    a_records = json.loads(path_a.read_text())
    b_records = json.loads(path_b.read_text())
    if [(r["family"], r["label"]) for r in a_records] != [
        (r["family"], r["label"]) for r in b_records
    ]:
        sys.exit("the two dumps hold different solves")
    rows: dict[str, dict] = {}
    for a, b in zip(a_records, b_records):
        row = rows.setdefault(
            a["family"],
            dict(solves=0, differ=0, count=0, status=0, steps=0, message=0, endpoint=0.0),
        )
        row["solves"] += 1
        if a == b:
            continue
        row["differ"] += 1
        if a.get("error") != b.get("error") or a.get("starts") != b.get("starts"):
            row["status"] += 1
            continue
        sa, sb = a["solutions"], b["solutions"]
        if len(sa) != len(sb):
            row["count"] += 1
            continue
        fa, fb = a["failures"], b["failures"]
        if [f[:3] for f in fa] != [f[:3] for f in fb]:
            row["status"] += 1
        elif [_up_to_lam(f[3]) for f in fa] != [_up_to_lam(f[3]) for f in fb]:
            row["message"] += 1
        if [s["steps"] for s in sa] != [s["steps"] for s in sb]:
            row["steps"] += 1
        for x, y in zip(sa, sb):
            for p, q in zip(x["point"], y["point"]):
                row["endpoint"] = max(row["endpoint"], _relative(p, q))
    header = ("family", "solves", "differ", "count", "status", "steps", "message", "max rel endpoint")
    print("{:<18}{:>8}{:>8}{:>8}{:>8}{:>8}{:>9}{:>18}".format(*header))
    for family, row in rows.items():
        print(
            f"{family:<18}{row['solves']:>8}{row['differ']:>8}{row['count']:>8}"
            f"{row['status']:>8}{row['steps']:>8}{row['message']:>9}"
            f"{row['endpoint']:>18.3g}"
        )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump").add_argument("out", type=Path)
    cmp = sub.add_parser("compare")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.out)
    else:
        compare(args.a, args.b)


if __name__ == "__main__":
    main()
