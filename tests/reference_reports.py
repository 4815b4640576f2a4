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

``dump`` also counts each solve's ``_kernels.jac_dlam`` calls, by wrapping
the kernel while the solve runs, and its cut step correctors: those that
``tracker.CONTRACTION`` stopped although a plain Newton of
``tracker.CORRECTOR_ITERS`` iterates, replayed from the same start after the
solve, converges.

``compare`` prints, per family, how many reports differ at all, and among
them the changes in solution count, failure status, accepted steps and
failure message (read up to its ``lam``), and the largest relative endpoint
difference.  A change to the tracker's arithmetic that moves only last bits
shows as differing reports with every other column zero.  A second table
gives both sides, as ``A -> B``, of the ``jac_dlam`` calls, of the cut
step correctors and of the failed paths by kind: fold, halvings
(``corrector failed after 3 halvings``), start (``start point correction
failed``) and other.
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
from realhomotopy import SolverConfig, _kernels, solve, tracker  # noqa: E402
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
    """The parts of one solve's outcome that the comparison reads, with the
    number of ``_kernels.jac_dlam`` calls the solve made and of its cut step
    correctors."""
    kernel, calls = _kernels.jac_dlam, [0]
    newton, failed = tracker._newton, []

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    def recorded(h, weights, lam, u, ctol, max_iters, contract=False):
        out = newton(h, weights, lam, u, ctol, max_iters, contract)
        if contract and not out[0] < ctol:
            failed.append((ctol, (h, weights, lam, u, ctol, max_iters)))
        return out

    _kernels.jac_dlam, tracker._newton = counted, recorded
    try:
        report = solve(system, config)
    except Exception as exc:  # a raised solve is an outcome to compare
        report = exc
    finally:
        _kernels.jac_dlam, tracker._newton = kernel, newton
    # Each failed step corrector again, as a plain Newton.
    counts = {
        "calls": calls[0],
        "cut": sum(newton(*args)[0] < ctol for ctol, args in failed),
    }
    if isinstance(report, Exception):
        return {**counts, "error": f"{type(report).__name__}: {report}"}
    return {
        **counts,
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


# Failure kinds by message prefix, the first that matches: a confirmed fold,
# a step that failed its fourth corrector, a start point the tracker could not
# pull onto its path, and any other failure.
KINDS = {
    "fold": "fold at lam=",
    "halvings": "corrector failed after 3 halvings",
    "start": "start point correction failed",
    "other": "",
}


def _kind(message: str) -> str:
    return next(kind for kind, prefix in KINDS.items() if message.startswith(prefix))


def _new_row() -> dict:
    row = dict.fromkeys(("solves", "differ", "count", "status", "steps", "message"), 0)
    row.update(endpoint=0.0, calls=[0, 0], cut=[0, 0])
    row["kinds"] = {kind: [0, 0] for kind in KINDS}
    return row


def compare_records(a_records: list[dict], b_records: list[dict]) -> dict[str, dict]:
    """Per family, the report changes from ``a_records`` to ``b_records``, and
    each side's ``jac_dlam`` calls, cut step correctors and failed paths by
    ``KINDS``, as the pair ``[a, b]``."""
    if [(r["family"], r["label"]) for r in a_records] != [
        (r["family"], r["label"]) for r in b_records
    ]:
        raise ValueError("the two dumps hold different solves")
    rows: dict[str, dict] = {}
    for a, b in zip(a_records, b_records):
        row = rows.setdefault(a["family"], _new_row())
        row["solves"] += 1
        for side, r in enumerate((a, b)):
            row["calls"][side] += r.get("calls", 0)
            row["cut"][side] += r.get("cut", 0)
            for f in r.get("failures", ()):
                row["kinds"][_kind(f[3])][side] += 1
        a = {k: v for k, v in a.items() if k not in ("calls", "cut")}
        b = {k: v for k, v in b.items() if k not in ("calls", "cut")}
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
    return rows


def compare(path_a: Path, path_b: Path) -> None:
    try:
        rows = compare_records(
            json.loads(path_a.read_text()), json.loads(path_b.read_text())
        )
    except ValueError as exc:
        sys.exit(str(exc))
    header = ("family", "solves", "differ", "count", "status", "steps", "message", "max rel endpoint")
    print("{:<18}{:>8}{:>8}{:>8}{:>8}{:>8}{:>9}{:>18}".format(*header))
    for family, row in rows.items():
        print(
            f"{family:<18}{row['solves']:>8}{row['differ']:>8}{row['count']:>8}"
            f"{row['status']:>8}{row['steps']:>8}{row['message']:>9}"
            f"{row['endpoint']:>18.3g}"
        )
    print()
    kinds = "".join(f"{k:>14}" for k in ("cut", *KINDS))
    print(f"{'family':<18}{'jac_dlam calls':>20}" + kinds)
    for family, row in rows.items():
        pairs = (row["calls"], row["cut"], *row["kinds"].values())
        sides = [f"{a} -> {b}" for a, b in pairs]
        print(f"{family:<18}{sides[0]:>20}" + "".join(f"{v:>14}" for v in sides[1:]))


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
