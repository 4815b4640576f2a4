"""Command line interface and the JSON input/output formats.

Input documents are JSON objects with:

    n             ambient dimension (int)
    supports      n lists of integer n-vectors
    coefficients  n lists of nonzero numbers; strings like "-3/4" parse as
                  exact rationals

Commands: ``mixed-cells``, ``certify`` and ``solve [--tol TOL] [--force]``.

Exit codes: 0 success, 1 input error (JSON nested too deeply to parse, a
number too large for a float, such as an exponent near 10**200, and a
coefficient string that would expand past Python's integer digit limit,
such as "1e1000000", included),
2 certificate fail (a system with no mixed cell included), 3 degenerate
lifting, 4 tracking failures present.
On a system with no mixed cell ``certify`` and ``solve`` also say on stderr
that its mixed volume is 0, so it has no isolated zero in the torus.

``solve`` prints each solution's ``point`` x; a zero beyond the float range,
where x would read ``inf`` or ``0``, is printed as its orthant ``signs`` and
``log_abs = log|x|`` instead, so the output stays strict JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

from .certificate import certify_system
from .errors import RealHomotopyError, TieDegenerate, echo
from .lattice import (
    Scalar,
    SupportSystem,
    build_cayley,
    log_abs_lifting,
    support_system,
)
from .mixed_cells import MixedCell, MixedCellSet, enumerate_mixed_cells
from .pipeline import SolverConfig, solve
from .tracker import PathState

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CERTIFICATE = 2
EXIT_DEGENERATE = 3
EXIT_TRACKING = 4


def _expanded_digits(raw: str) -> int:
    """Digits of the larger integer ``Fraction`` forms from an exponent-form
    string before it reduces, ``m * 10**e`` or ``10**-e``: ``m`` is the
    mantissa's digits, ``e`` the exponent less those after the point."""
    mantissa, _, exponent = raw.lower().rpartition("e")
    whole, _, decimals = mantissa.partition(".")
    try:
        m, e = int(whole + decimals), int(exponent) - len(decimals.replace("_", ""))
    except ValueError:  # not in exponent form; Fraction decides
        return 0
    return max(len(str(abs(m))) + e, 1 - e)


def _parse_coefficient(raw: object) -> Scalar:
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise ValueError(f"bad coefficient {echo(raw)}")
    if isinstance(raw, float):
        return raw
    # Python's limit on a written-out integer (0: none) bounds expanded ones.
    limit = sys.get_int_max_str_digits()
    if isinstance(raw, str) and limit and _expanded_digits(raw) > limit:
        raise ValueError(f"bad coefficient {echo(raw)}: expands past {limit} digits")
    try:
        return Fraction(raw)
    except ValueError:
        # Fraction's own message quotes the whole string.
        raise ValueError(f"bad coefficient {echo(raw)}") from None


def load_system(path: str | Path) -> SupportSystem:
    """Parse an input document; a malformed one raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("input nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("input must be a JSON object")
    n, supports, coefficients = doc["n"], doc["supports"], doc["coefficients"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {echo(n)}")
    try:
        if len(supports) != n or len(coefficients) != n:
            raise ValueError("need exactly n supports and n coefficient lists")
        rows = [[_parse_coefficient(c) for c in row] for row in coefficients]
        return support_system(supports, rows)
    except (TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"malformed system: {exc}") from None


def _cell_doc(cell: MixedCell, inequality_count: int) -> dict:
    return {
        "indices": [[p + 1, q + 1] for p, q in cell.edges],
        "normal": list(cell.normal),
        "normal_primitive": list(cell.primitive_normal)
        if cell.primitive_normal
        else None,
        "volume": cell.volume,
        "inequalities": inequality_count,
    }


def _cell_docs(cells: MixedCellSet) -> list[dict]:
    # Every cell excludes the same number of Cayley points and contributes one
    # inequality per excluded point, so each holds an even share of the
    # table's rows; counting rows builds no circuit objects.
    per_cell = len(cells.inequalities) // len(cells.cells) if cells.cells else 0
    return [_cell_doc(c, per_cell) for c in cells.cells]


def cmd_mixed_cells(args: argparse.Namespace) -> int:
    system = load_system(args.input)
    config = build_cayley(system)
    cells = enumerate_mixed_cells(config, log_abs_lifting(system))
    doc = {
        "n": system.n,
        "m": config.m,
        "cell_count": len(cells.cells),
        "total_volume": cells.total_volume(),
        "cells": _cell_docs(cells),
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _note_no_cell(cells: MixedCellSet) -> None:
    # Bernstein: a system has at most its mixed volume of isolated zeros in
    # the torus, and the mixed volume is the cells' total volume.
    if not cells.cells:
        reason = "the mixed volume is 0, so the system has no isolated zero in the torus"
        print(f"no mixed cell: {reason}", file=sys.stderr)


def cmd_certify(args: argparse.Namespace) -> int:
    system = load_system(args.input)
    cert, cells = certify_system(system)
    _note_no_cell(cells)
    doc = {
        "verdict": "pass" if cert.verdict else "fail",
        "m": cert.m,
        "cell_count": cert.cell_count,
        "inequality_count": len(cells.inequalities),
        "margins": sorted(cert.margins),
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK if cert.verdict else EXIT_CERTIFICATE


def _solution_doc(s: PathState) -> dict:
    if all(math.isfinite(v) and v != 0.0 for v in s.point):
        zero = {"point": list(s.point)}
    else:
        zero = {"signs": list(s.signs), "log_abs": list(s.logs)}
    return {**zero, "residual": s.residual, "steps": s.steps}


def cmd_solve(args: argparse.Namespace) -> int:
    system = load_system(args.input)
    report = solve(system, SolverConfig(tol=args.tol, force=args.force))
    _note_no_cell(report.cells)
    doc = {
        "verdict": "pass" if report.verdict else "fail",
        "uncertified": report.uncertified,
        "cell_count": len(report.cells.cells),
        "cells": _cell_docs(report.cells),
        "margins": sorted(report.certificate.margins),
        "start_solution_counts": report.start_solutions,
        "solutions": [_solution_doc(s) for s in report.solutions],
        "failures": [
            {
                "cell": f.cell_index,
                "path": f.path_index,
                "status": f.status,
                "message": f.message,
                "steps": f.steps,
            }
            for f in report.failures
        ],
        "timings": report.timings,
    }
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    print(
        f"cells={len(report.cells.cells)} verdict="
        f"{'pass' if report.verdict else 'fail'} "
        f"solutions={len(report.solutions)} failures={len(report.failures)}",
        file=sys.stderr,
    )
    if not report.verdict and not args.force:
        return EXIT_CERTIFICATE
    if report.failures:
        return EXIT_TRACKING
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT; argparse's own 2 is EXIT_CERTIFICATE."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="realhomotopy",
        description="Count and compute real zeros of sparse polynomial systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cells = sub.add_parser("mixed-cells", help="enumerate mixed cells")
    p_cells.add_argument("input")
    p_cells.set_defaults(func=cmd_mixed_cells)

    p_cert = sub.add_parser("certify", help="run the patchwork certificate")
    p_cert.add_argument("input")
    p_cert.set_defaults(func=cmd_certify)

    p_solve = sub.add_parser("solve", help="full solve with path tracking")
    p_solve.add_argument("input")
    p_solve.add_argument("--tol", type=float, default=SolverConfig.tol)
    p_solve.add_argument("--force", action="store_true")
    p_solve.set_defaults(func=cmd_solve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TieDegenerate as exc:
        print(f"degenerate lifting: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    # json.JSONDecodeError is a ValueError.
    except (RealHomotopyError, ValueError, KeyError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())
