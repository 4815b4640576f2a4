"""Real solutions of binomial systems attached to mixed cells.

A mixed cell restricts each equation to its two edge terms, giving
``x**D = r`` with row i of D the exponent difference ``a1 - a2`` and
``r_i = -c2/c1``.  Writing ``x_j = (-1)**b_j * exp(y_j)`` splits the real
solutions into two independent linear problems on the same matrix:

- magnitudes, ``D @ y = log|r|``, one exact solve over the rationals;
- signs, ``(D mod 2) @ b = [r < 0]`` over GF(2), so a cell has either no real
  solution or ``2**(n - rank_2 D)`` of them.

Magnitudes stay in log space until the end, so large exponents neither
overflow nor underflow; signs are exact bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import Scalar, SupportSystem, log_abs, solve_exact
from .mixed_cells import MixedCell

RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class BinomialSystem:
    """Rows of exponent differences and the matching coefficient ratios."""

    exponents: tuple[tuple[int, ...], ...]
    rhs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        n = self.n
        if len(self.rhs) != n or any(len(row) != n for row in self.exponents):
            raise ValueError("binomial systems need n rows of n exponents, n ratios")
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

    The log-magnitudes come from one ``solve_exact`` call on D, which raises
    SingularExponentMatrix for a singular D.  The sign vectors are the
    solutions of the parity system (see ``_parity_solutions``).  Returns the
    possibly empty solution list in ascending order of sign vectors.
    """
    logs = solve_exact(bsys.exponents, [log_abs(r) for r in bsys.rhs])
    solutions = []
    for signs in _parity_solutions(bsys.exponents, [r < 0 for r in bsys.rhs]):
        _check_residual(bsys, signs, logs)
        point = tuple(s * math.exp(v) for s, v in zip(signs, logs))
        solutions.append(RealOrthantSolution(point=point, signs=signs))
    return solutions


def _parity_solutions(
    exponents: Sequence[Sequence[int]], negative: Sequence[bool]
) -> list[tuple[int, ...]]:
    """Sign vectors s with ``s**D[i] < 0`` exactly where ``negative[i]``.

    Gauss-Jordan over GF(2) on bitmask rows (bit j is the parity of column
    j), each pivot the highest column of its row.  A pivot column then
    depends only on free columns to its left, so two solutions first differ
    in a free column: counting the free bits down from all ones, leftmost
    column most significant, lists the sign vectors in ascending order (-1
    before +1).  An inconsistent system has no solution.
    """
    n = len(exponents)
    pivots: dict[int, tuple[int, int]] = {}
    for row, neg in zip(exponents, negative):
        mask = sum(1 << j for j, e in enumerate(row) if e % 2)
        bit = int(neg)
        for col, (p_mask, p_bit) in pivots.items():
            if mask >> col & 1:
                mask ^= p_mask
                bit ^= p_bit
        if not mask:
            if bit:
                return []
            continue
        col = mask.bit_length() - 1
        for c, (p_mask, p_bit) in pivots.items():
            if p_mask >> col & 1:
                pivots[c] = (p_mask ^ mask, p_bit ^ bit)
        pivots[col] = (mask, bit)
    free = [j for j in range(n) if j not in pivots]
    out = []
    for k in range((1 << len(free)) - 1, -1, -1):
        b = sum(1 << j for i, j in enumerate(reversed(free)) if k >> i & 1)
        for c, (p_mask, p_bit) in pivots.items():
            b |= (p_bit ^ (p_mask & b).bit_count() & 1) << c
        out.append(tuple(-1 if b >> j & 1 else 1 for j in range(n)))
    return out


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
