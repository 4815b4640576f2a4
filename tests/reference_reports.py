"""Dump and compare the solver's reports on the 566 reference solves.

Usage, from the root of the repository::

    python3 tests/reference_reports.py dump OUT.json
    python3 tests/reference_reports.py compare A.json B.json

The reference solves are the 279 benchmark corpus systems (the three
workloads of ``perfbench/workloads.py`` at seeds 1-3), the 224 held-out
forced systems of ``helpers.held_out_forced`` and the 63 certified systems
of ``helpers.at_scale_systems``, whose zeros lie up to about ``exp(+-2000)``.
``dump`` records, per solve, the raised exception if any, the start-solution
counts and the report's path records (``tracker.PathState``): every converged
path's endpoint as its signs and ``log|x|`` with its accepted steps and
residual, and every failed path's cell and path index, status and message.
Floats keep their exact value in JSON.

``dump`` also counts each solve's ``_kernels.jac_dlam`` calls, by wrapping
the kernel while the solve runs, and its cut step correctors: those that
``tracker.CONTRACTION`` stopped although a plain Newton of
``tracker.CORRECTOR_ITERS`` iterates, replayed from the same start after the
solve, converges.

``compare`` prints, per family, how many reports differ at all, and among
them the changes in solution count, failure status, accepted steps and
failure message (read up to its ``lam``), and the largest relative endpoint
difference (read as the largest ``|log|x_a| - log|x_b||``).  A change to
the tracker's arithmetic that moves only last bits shows as differing
reports with every other column zero.  A family that only one dump holds is
named as such, and the endpoints of an older dump, which recorded x alone,
are compared in x.  A second table gives both sides, as ``A -> B``, of the
``jac_dlam`` calls, of the accepted steps summed over converged paths, of
the cut step correctors and of the failed paths by kind: fold, halvings
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

from helpers import at_scale_systems, held_out_forced  # noqa: E402
from realhomotopy import SolverConfig, _kernels, solve, tracker  # noqa: E402
import numpy as np  # noqa: E402
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
    for label, system in at_scale_systems():
        yield "at_scale", label, system, SolverConfig()


def report_record(system, config) -> dict:
    """The parts of one solve's outcome that the comparison reads, with the
    number of ``_kernels.jac_dlam`` calls the solve made and of its cut step
    correctors."""
    kernel, calls = _kernels.jac_dlam, [0]
    newton, failed = tracker._newton, []

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    def recorded(*args, contract=False, **kwargs):
        out = newton(*args, contract=contract, **kwargs)
        ctol = args[4]
        if contract and not out[0] < ctol:
            failed.append((ctol, args))
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
            {
                "signs": list(s.signs),
                "logs": list(s.logs),
                "steps": s.steps,
                "residual": s.residual,
            }
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


def _in_x(record: dict) -> dict:
    """``record`` with each endpoint as x, formed as ``track`` forms a path's
    ``point``: how a record of signs and ``log|x|`` compares with one from an
    older dump, which recorded x alone."""
    if "solutions" not in record:
        return record
    solutions = []
    for s in record["solutions"]:
        if "logs" in s:
            with np.errstate(over="ignore", under="ignore"):
                x = np.array(s["signs"], dtype=np.float64) * np.exp(s["logs"])
            s = {"point": x.tolist(), **{k: s[k] for k in ("steps", "residual")}}
        solutions.append(s)
    return {**record, "solutions": solutions}


def _endpoint_gap(x: dict, y: dict) -> float:
    """The largest relative difference of two endpoints: in x if recorded in
    x, else ``|log|x_a| - log|x_b||``, and inf across orthants."""
    if "point" in x:
        return max(_relative(p, q) for p, q in zip(x["point"], y["point"]))
    if x["signs"] != y["signs"]:
        return math.inf
    return max(abs(p - q) for p, q in zip(x["logs"], y["logs"]))


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
    row.update(endpoint=0.0, calls=[0, 0], accepted=[0, 0], cut=[0, 0], only=None)
    row["kinds"] = {kind: [0, 0] for kind in KINDS}
    return row


def _tally(row: dict, side: int, record: dict) -> None:
    row["calls"][side] += record.get("calls", 0)
    row["accepted"][side] += sum(s["steps"] for s in record.get("solutions", ()))
    row["cut"][side] += record.get("cut", 0)
    for f in record.get("failures", ()):
        row["kinds"][_kind(f[3])][side] += 1


def compare_records(a_records: list[dict], b_records: list[dict]) -> dict[str, dict]:
    """Per family, the report changes from ``a_records`` to ``b_records``, and
    each side's ``jac_dlam`` calls, accepted steps of converged paths, cut
    step correctors and failed paths by ``KINDS``, as the pair ``[a, b]``.

    A family that both dumps hold must hold the same solves in both.  A
    family that only one holds gets a row of its own: ``only`` names that
    side, "A" or "B", and the other side's counts are None."""
    families: dict[str, list[list[dict]]] = {}
    for side, records in enumerate((a_records, b_records)):
        for r in records:
            families.setdefault(r["family"], [[], []])[side].append(r)
    rows: dict[str, dict] = {}
    for family, (a_side, b_side) in families.items():
        row = rows[family] = _new_row()
        if not (a_side and b_side):
            side = 0 if a_side else 1
            row["only"] = "AB"[side]
            row["solves"] = len(a_side or b_side)
            for r in a_side or b_side:
                _tally(row, side, r)
            for pair in (row["calls"], row["accepted"], row["cut"], *row["kinds"].values()):
                pair[1 - side] = None
            continue
        if [r["label"] for r in a_side] != [r["label"] for r in b_side]:
            raise ValueError(f"the two dumps hold different {family} solves")
        for a, b in zip(a_side, b_side):
            row["solves"] += 1
            _tally(row, 0, a)
            _tally(row, 1, b)
            a = {k: v for k, v in a.items() if k not in ("calls", "cut")}
            b = {k: v for k, v in b.items() if k not in ("calls", "cut")}
            if any("point" in s for r in (a, b) for s in r.get("solutions", ())):
                a, b = _in_x(a), _in_x(b)
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
                row["endpoint"] = max(row["endpoint"], _endpoint_gap(x, y))
    return rows


def _side(value) -> str:
    return "-" if value is None else str(value)


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
        if row["only"]:
            print(f"{family:<18}{row['solves']:>8}   only in {row['only']}")
            continue
        print(
            f"{family:<18}{row['solves']:>8}{row['differ']:>8}{row['count']:>8}"
            f"{row['status']:>8}{row['steps']:>8}{row['message']:>9}"
            f"{row['endpoint']:>18.3g}"
        )
    print()
    kinds = "".join(f"{k:>14}" for k in ("cut", *KINDS))
    print(f"{'family':<18}{'jac_dlam calls':>20}{'accepted steps':>18}" + kinds)
    for family, row in rows.items():
        pairs = (row["calls"], row["accepted"], row["cut"], *row["kinds"].values())
        sides = [f"{_side(a)} -> {_side(b)}" for a, b in pairs]
        print(
            f"{family:<18}{sides[0]:>20}{sides[1]:>18}"
            + "".join(f"{v:>14}" for v in sides[2:])
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
