"""Real solutions of binomial systems attached to mixed cells.

A mixed cell restricts each equation to its two edge terms, giving
``x**(a1 - a2) = -c2/c1`` per equation.  Hermite-reducing the exponent matrix
turns this into a triangular system whose real solvability is decided by the
parity of the pivots and the signs of the transformed right-hand sides.

Magnitudes are carried in log space throughout, so monomial transforms with
large unimodular entries neither overflow nor underflow; signs are tracked
separately as exact integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import Scalar, SupportSystem, hermite_normal_form, log_abs
from .mixed_cells import MixedCell

RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class BinomialSystem:
    """Rows of exponent differences and the matching coefficient ratios."""

    exponents: tuple[tuple[int, ...], ...]
    rhs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        for r in self.rhs:
            if r == 0:
                raise ValueError("binomial right-hand sides must be nonzero")

    @property
    def n(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class RealOrthantSolution:
    """A real solution with no zero coordinate and its orthant signs."""

    point: tuple[float, ...]
    signs: tuple[int, ...]


def binomial_from_cell(cell: MixedCell, system: SupportSystem) -> BinomialSystem:
    """The two-term system a mixed cell leaves behind at the toric limit.

    Row i is the exponent difference of the cell's edge in equation i, first
    listed point on the left.  Moving the second term across the equality
    flips its sign, hence the ratio -c2/c1.
    """
    rows: list[tuple[int, ...]] = []
    rhs: list[Scalar] = []
    for i, (p, q) in enumerate(cell.edges):
        a = system.supports[i].points[p]
        b = system.supports[i].points[q]
        rows.append(tuple(x - y for x, y in zip(a, b)))
        c1 = system.coefficients[i][p]
        c2 = system.coefficients[i][q]
        if isinstance(c1, (int, Fraction)) and isinstance(c2, (int, Fraction)):
            rhs.append(-Fraction(c2) / Fraction(c1))
        else:
            rhs.append(-float(c2) / float(c1))
    return BinomialSystem(exponents=tuple(rows), rhs=tuple(rhs))


def _sign(value: Scalar) -> int:
    return 1 if value > 0 else -1


def solve_real(bsys: BinomialSystem) -> list[RealOrthantSolution]:
    """All real solutions of ``x**D = rhs`` outside the coordinate hyperplanes.

    Reduces D to lower-triangular Hermite form, transforms the right-hand side
    monomially (signs exactly, magnitudes in log space), then back-substitutes
    while enumerating consistent sign branches: an even pivot needs a positive
    right-hand side and doubles the branch, an odd pivot determines the sign.
    Returns the possibly empty solution list, lexicographic by sign vector
    then coordinates.  A singular D raises SingularExponentMatrix from the
    Hermite reduction.
    """
    n = bsys.n
    h, u = hermite_normal_form([list(r) for r in bsys.exponents])

    log_rhs = [log_abs(r) for r in bsys.rhs]
    sign_rhs = [_sign(r) for r in bsys.rhs]
    lam_log = [
        math.fsum(u[i][j] * log_rhs[j] for j in range(n)) for i in range(n)
    ]
    lam_sign = [
        _sign_power_product(sign_rhs, u[i]) for i in range(n)
    ]

    branches: list[tuple[list[int], list[float]]] = [([], [])]
    for i in range(n):
        pivot = h[i][i]
        new_branches: list[tuple[list[int], list[float]]] = []
        for signs, logs in branches:
            rem_log = lam_log[i] - math.fsum(
                h[i][j] * logs[j] for j in range(i)
            )
            needed = lam_sign[i] * _sign_power_product(signs, h[i][:i])
            log_xi = rem_log / pivot
            if pivot % 2 == 0:
                if needed < 0:
                    continue
                for s in (1, -1):
                    new_branches.append((signs + [s], logs + [log_xi]))
            else:
                new_branches.append((signs + [needed], logs + [log_xi]))
        branches = new_branches

    solutions = []
    for signs, logs in branches:
        point = tuple(s * math.exp(v) for s, v in zip(signs, logs))
        _check_residual(bsys, signs, logs)
        solutions.append(RealOrthantSolution(point=point, signs=tuple(signs)))
    solutions.sort(key=lambda s: (s.signs, s.point))
    return solutions


def _sign_power_product(signs: Sequence[int], exponents: Sequence[int]) -> int:
    out = 1
    for s, e in zip(signs, exponents):
        if e % 2:
            out *= s
    return out


def _check_residual(
    bsys: BinomialSystem, signs: Sequence[int], logs: Sequence[float]
) -> None:
    # Plug-in verification on the original, untransformed equations.
    for row, r in zip(bsys.exponents, bsys.rhs):
        log_val = math.fsum(e * v for e, v in zip(row, logs))
        sign_val = _sign_power_product(signs, row)
        rel = abs(math.exp(log_val - log_abs(r)) - 1.0)
        if sign_val != _sign(r) or rel > RESIDUAL_RTOL:
            raise AssertionError(
                f"binomial residual check failed: relative error {rel:.3e}"
            )
