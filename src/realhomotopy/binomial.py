"""Real solutions of binomial systems attached to mixed cells.

A mixed cell restricts each equation to its two edge terms, giving
``x**D = r`` with row i of D the exponent difference ``a1 - a2`` and
``r_i = -c2/c1``.  Writing ``x_j = (-1)**b_j * exp(y_j)`` splits the real
solutions into two independent linear problems on the same matrix:

- magnitudes, ``D @ y = log|r|``, from one exact adjugate of D;
- signs, ``(D mod 2) @ b = [r < 0]`` over GF(2), so a cell has either no real
  solution or ``2**(n - rank_2 D)`` of them.

``solve_real`` returns a solution in exactly that form, its orthant
``signs`` and ``logs = log|x|``, and never as x: a zero at ``exp(+-1000)``
neither overflows nor underflows.

The solver itself reads only the signs: a path enters its cell's truncated
branch from the cell's normal and the start's orthant (``tracker.make_path``).
So ``pipeline.solve`` takes each cell's orthants from ``real_orthants``, the
parity system alone, with no ratio, log or elimination of D; both functions
solve the one parity system with ``_parity_solutions``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import SingularExponentMatrix
from .lattice import Scalar, SupportSystem, apply_adjugate, det_adjugate, log_abs, sign
from .mixed_cells import MixedCell

RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class BinomialSystem:
    """Rows of exponent differences and the matching coefficient ratios.

    Each ratio is nonzero, and a float ratio is finite: an inf or NaN has no
    log, and the residual check would pass the NaNs that it makes.
    """

    exponents: tuple[tuple[int, ...], ...]
    rhs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        n = self.n
        if len(self.rhs) != n or any(len(row) != n for row in self.exponents):
            raise ValueError("binomial systems need n rows of n exponents, n ratios")
        for r in self.rhs:
            if r == 0:
                raise ValueError("binomial right-hand sides must be nonzero")
            if isinstance(r, float) and not math.isfinite(r):
                raise ValueError("binomial right-hand sides must be finite")

    @property
    def n(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class RealOrthantSolution:
    """A real solution with no zero coordinate: ``x_j = signs[j] *
    exp(logs[j])``."""

    signs: tuple[int, ...]
    logs: tuple[float, ...]


def binomial_from_cell(cell: MixedCell, system: SupportSystem) -> BinomialSystem:
    """The two-term system a mixed cell leaves behind at the toric limit.

    Row i is the exponent difference of the cell's edge ``(p, q)`` in
    equation i, point p on the left.  Moving the second term across the
    equality flips its sign, hence the ratio ``-c_q / c_p``.

    The ratio is the float quotient when both coefficients are floats and the
    quotient is finite, and otherwise the exact ``Fraction``: no int is ever
    converted to a float, and a quotient of floats that overflows (as
    ``1.0 / 1e-320`` does) is kept exact.  Point p has the smaller lifting
    ``log|c|``, so ``|c_p| <= |c_q|`` and the quotient cannot underflow.
    """
    rhs: list[Scalar] = []
    for i, (p, q) in enumerate(cell.edges):
        c_p = system.coefficients[i][p]
        c_q = system.coefficients[i][q]
        if isinstance(c_p, float) and isinstance(c_q, float):
            r = -c_q / c_p
            if math.isfinite(r):
                rhs.append(r)
                continue
        rhs.append(-Fraction(c_q) / Fraction(c_p))
    return BinomialSystem(exponents=_edge_differences(cell, system), rhs=tuple(rhs))


def _edge_differences(
    cell: MixedCell, system: SupportSystem
) -> tuple[tuple[int, ...], ...]:
    """Row i is ``a_p - a_q`` for the cell's edge ``(p, q)`` in equation i."""
    return tuple(
        tuple(x - y for x, y in zip(sup.points[p], sup.points[q]))
        for sup, (p, q) in zip(system.supports, cell.edges)
    )


def real_orthants(cell: MixedCell, system: SupportSystem) -> list[tuple[int, ...]]:
    """The orthants of a cell's real starts: the sign vectors of
    ``solve_real(binomial_from_cell(cell, system))``, in the same ascending
    order, from the parity system alone.

    Row i's ratio ``-c_q / c_p`` is negative exactly when c_p and c_q have
    one sign, so no ratio, log, elimination of D or residual is formed.
    Each orthant is checked, in integers, to give every row its ratio's sign.
    """
    rows = _edge_differences(cell, system)
    negative = [
        sign(cs[p]) == sign(cs[q])
        for cs, (p, q) in zip(system.coefficients, cell.edges)
    ]
    orthants = _parity_solutions(rows, negative)
    for signs in orthants:
        for row, neg in zip(rows, negative):
            if (sign_power_product(signs, row) < 0) != neg:
                raise AssertionError("binomial sign check failed")
    return orthants


def solve_real(bsys: BinomialSystem) -> list[RealOrthantSolution]:
    """All real solutions of ``x**D = rhs`` outside the coordinate hyperplanes,
    as signs and log-magnitudes.

    The log-magnitudes come from one exact adjugate of D (see
    ``_solve_logs``); a singular D raises SingularExponentMatrix.  The sign
    vectors are the solutions of the parity system (see
    ``_parity_solutions``).  Returns the possibly empty solution list in
    ascending order of sign vectors.  Each solution is checked on the
    original equations; where a term ``e * log|x_j|`` of that check leaves
    the float range (exponents near 10**200), it raises OverflowError.
    """
    log_r = [log_abs(r) for r in bsys.rhs]
    logs, rtol = _solve_logs(bsys.exponents, log_r)
    solutions = []
    negative = [sign(r) < 0 for r in bsys.rhs]
    for signs in _parity_solutions(bsys.exponents, negative):
        _check_residual(bsys, signs, logs, log_r, rtol)
        solutions.append(RealOrthantSolution(signs=signs, logs=logs))
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


def sign_power_product(signs: Sequence[int], exponents: Sequence[int]) -> int:
    """The sign of ``prod_j signs[j]**exponents[j]`` from the parity of each
    exact integer exponent: the one rule for a monomial's sign in an orthant."""
    out = 1
    for s, e in zip(signs, exponents):
        if e % 2:
            out *= s
    return out


def _solve_logs(
    exponents: Sequence[Sequence[int]], log_r: Sequence[float]
) -> tuple[tuple[float, ...], list[float]]:
    """The float solution v of ``D @ v = log|r|`` from one exact adjugate,
    and per row i the relative residual that this v may show.

    Two float errors reach row i; write l = log|r|, u = eps / 2 and drop
    u**2 terms.

    - The solve.  In ``v_j = sum_k adj_jk l_k / det`` each term meets at
      most n + 1 roundings, each a factor at most 1 + u: adj_jk as a float,
      its product and up to n - 1 additions.  The division and det as a
      float add two more.  So ``|v~_j - v_j| <= (n + 3) u S_j`` with
      ``S_j = sum_k |adj_jk l_k| / |det|``.
    - The check.  ``math.fsum`` of the products ``e_ij v~_j`` rounds each
      product (after e_ij becomes a float) by ``2u |e_ij v~_j|`` and the sum
      once by u times its size, which is at most ``sum_j |e_ij v~_j|``.

    As ``sum_j e_ij v_j = l_i`` exactly, the log of row i is off by at most
    ``u sum_j |e_ij| ((n + 3) S_j + 3 |v~_j|)``, which
    ``(n + 3) eps sum_j |e_ij| (S_j + |v~_j|)`` covers twice over; the exp
    and the subtraction of 1 add a few u.  With exponents near 10**6 and
    det = -1 this reaches 1e-8 and more, far above ``RESIDUAL_RTOL``.
    """
    det, adj = det_adjugate(exponents)
    if det == 0:
        raise SingularExponentMatrix("singular exponent matrix")
    logs = tuple(apply_adjugate(det, adj, log_r))
    size = [
        math.fsum(abs(a * x) for a, x in zip(row, log_r)) / abs(det) + abs(v)
        for row, v in zip(adj, logs)
    ]
    eps = (len(exponents) + 3) * sys.float_info.epsilon
    rtol = [
        RESIDUAL_RTOL + eps * math.fsum(abs(e) * z for e, z in zip(row, size))
        for row in exponents
    ]
    return logs, rtol


def _check_residual(
    bsys: BinomialSystem,
    signs: Sequence[int],
    logs: Sequence[float],
    log_r: Sequence[float],
    rtol: Sequence[float],
) -> None:
    # Plug-in verification on the original, untransformed equations, each
    # row within the rounding that ``_solve_logs`` allows it.
    for row, r, lr, tol in zip(bsys.exponents, bsys.rhs, log_r, rtol):
        terms = [e * v for e, v in zip(row, logs)]
        if not all(map(math.isfinite, terms)):
            raise OverflowError(
                "binomial residual check: a term e * log|x| leaves the float range"
            )
        log_val = math.fsum(terms)
        sign_val = sign_power_product(signs, row)
        rel = abs(math.exp(log_val - lr) - 1.0)
        if sign_val != sign(r) or rel > tol:
            raise AssertionError(
                f"binomial residual check failed: relative error {rel:.3e}"
            )
