"""Output checks that share no code with the solver's own residual and kernels.

``check_report`` returns the names of the checks a returned ``SolveReport``
fails, an empty list when it passes them all.
"""

from __future__ import annotations

import math
from typing import Sequence

from helpers import EXPECTED_TRACKED_SOLUTIONS
from workloads import Item

DISTINCT_RTOL = 1e-6
# Half a unit in the 6th significant digit, relative to the pinned value.
REFERENCE_RTOL = 5e-6


def float_residual(system, point: Sequence[float]) -> float:
    """Max over equations of ``|sum of terms| / max |term|`` in float."""
    worst = 0.0
    for support, coeffs in zip(system.supports, system.coefficients):
        try:
            terms = [
                float(c) * math.prod(x**e for x, e in zip(point, a))
                for a, c in zip(support.points, coeffs)
            ]
        except OverflowError:
            return math.inf
        big = max(abs(t) for t in terms)
        if big == 0.0 or not math.isfinite(big):
            return math.inf
        worst = max(worst, abs(math.fsum(terms)) / big)
    return worst


def _distinct(p: Sequence[float], q: Sequence[float]) -> bool:
    # Endpoints lie in the torus, so every coordinate has a scale of its own.
    return any(abs(a - b) > DISTINCT_RTOL * max(abs(a), abs(b)) for a, b in zip(p, q))


def _det(rows: list[list[int]]) -> int:
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def total_cell_volume(system, cells) -> int:
    """Sum over cells of ``|det|`` of the edge vectors, rebuilt from the supports."""
    total = 0
    for cell in cells:
        rows = [
            [a - b for a, b in zip(sup.points[p], sup.points[q])]
            for sup, (p, q) in zip(system.supports, cell.edges)
        ]
        total += abs(_det(rows))
    return total


def matches_reference(points, expected) -> bool:
    """Whether ``points`` and ``expected`` pair off one to one, each coordinate
    within ``REFERENCE_RTOL`` of the pinned value."""
    unmatched = list(points)
    if len(unmatched) != len(expected):
        return False
    for want in expected:
        for k, p in enumerate(unmatched):
            if all(abs(a - b) <= REFERENCE_RTOL * abs(b) for a, b in zip(p, want)):
                del unmatched[k]
                break
        else:
            return False
    return True


def check_report(item: Item, report) -> list[str]:
    """Names of the checks ``report`` fails for the solved ``item``."""
    failed = []
    points = [s.point for s in report.solutions]
    tol = item.config.tol
    if any(not float_residual(item.system, p) < tol for p in points):
        failed.append("residual")
    if any(
        not _distinct(points[i], points[j])
        for i in range(len(points))
        for j in range(i + 1, len(points))
    ):
        failed.append("distinct")
    if item.reference and not matches_reference(points, EXPECTED_TRACKED_SOLUTIONS):
        failed.append("reference")
    if item.dense_degree is not None and (
        report.cells is None
        or total_cell_volume(item.system, report.cells.cells) != item.dense_degree**2
    ):
        failed.append("volume")
    return failed
