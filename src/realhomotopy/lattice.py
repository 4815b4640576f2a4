"""Supports, coefficients, liftings, the Cayley embedding, and exact lattice arithmetic.

The integer linear algebra here runs on Python ints, so exponent arithmetic
is exact at any magnitude.  Determinants, adjugates and exact solves of one
matrix come from one fraction-free Gauss-Jordan elimination
(``det_adjugate``), and every float solve from its adjugate rounds as
``apply_adjugate`` does; the binomial start systems use them.  Cell
enumeration and its circuits eliminate every survivor's edge matrix at once
in numpy arrays (``mixed_cells._det_adjugate``), with the same values, and
round their gammas by the same running sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import SingularExponentMatrix

Scalar = Union[int, float, Fraction]

IntMatrix = list[list[int]]


def log_abs(value: Scalar) -> float:
    """Natural log of ``abs(value)``.

    Fractions are split into integer numerator/denominator logs so that huge
    exact coefficients never overflow an intermediate float.  Between 1/2 and
    2 those two logs would cancel, so there the exact ``(num - den) / den`` is
    rounded once and passed to ``log1p``.  Ints and floats go straight to
    ``math.log``, which takes an int beyond the float range without
    overflow and converts any other int as ``float()`` does.
    """
    if value == 0:
        raise ValueError("log of zero coefficient")
    if isinstance(value, Fraction):
        num, den = abs(value.numerator), value.denominator
        if den <= 2 * num and num <= 2 * den:
            return math.log1p((num - den) / den)
        return math.log(num) - math.log(den)
    return math.log(abs(value))


def sign(value: Scalar) -> int:
    """``1`` or ``-1``, the sign of a nonzero scalar.

    The one rule for a coefficient's sign.  A Fraction's sign is read from
    its numerator, at a third of the cost of comparing the Fraction.
    """
    return 1 if getattr(value, "numerator", value) > 0 else -1


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SupportSet:
    """An ordered set of distinct integer exponent vectors in Z^n."""

    points: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("support must contain at least one point")
        for p in self.points:
            if len(p) != self.n:
                raise ValueError(f"point {p} does not have dimension {self.n}")
            if not all(isinstance(c, int) for c in p):
                raise ValueError(f"point {p} has non-integer coordinates")
        if len(set(self.points)) != len(self.points):
            raise ValueError("support points must be distinct")

    def __len__(self) -> int:
        return len(self.points)


def support_set(points: Sequence[Sequence[int]]) -> SupportSet:
    """Build a SupportSet, inferring the ambient dimension from the points."""
    pts = tuple(tuple(int(c) for c in p) for p in points)
    # A bool equals its int, so it is refused by type, as the CLI does.
    boolean = any(isinstance(c, bool) for p in points for c in p)
    if boolean or pts != tuple(tuple(p) for p in points):
        raise ValueError("exponents must be integers")
    if not pts:
        raise ValueError("empty support")
    return SupportSet(points=pts, n=len(pts[0]))


@dataclass(frozen=True)
class SupportSystem:
    """A square sparse system: n supports in Z^n with aligned nonzero coefficients."""

    supports: tuple[SupportSet, ...]
    coefficients: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        if not self.supports:
            raise ValueError("system has no equations")
        n = self.supports[0].n
        if len(self.supports) != n:
            raise ValueError(
                f"system is not square: {len(self.supports)} supports in dimension {n}"
            )
        if len(self.coefficients) != len(self.supports):
            raise ValueError("one coefficient vector per support is required")
        for sup, coeffs in zip(self.supports, self.coefficients):
            if sup.n != n:
                raise ValueError("all supports must share one ambient dimension")
            if len(coeffs) != len(sup):
                raise ValueError("coefficient count must match support size")
            for c in coeffs:
                if c == 0:
                    raise ValueError("zero coefficient in support")

    @property
    def n(self) -> int:
        return self.supports[0].n


def support_system(
    supports: Sequence[Sequence[Sequence[int]]],
    coefficients: Sequence[Sequence[Scalar]],
) -> SupportSystem:
    return SupportSystem(
        supports=tuple(support_set(s) for s in supports),
        coefficients=tuple(tuple(cs) for cs in coefficients),
    )


@dataclass(frozen=True)
class CayleyConfig:
    """The Cayley embedding of n supports into Z^(2n-1) with block provenance.

    Point k originates from support ``block[k]`` at position ``origin_index[k]``;
    ordering is block-major and preserves the input order inside each block.
    """

    points: tuple[tuple[int, ...], ...]
    block: tuple[int, ...]
    origin_index: tuple[int, ...]
    n: int

    @property
    def m(self) -> int:
        return len(self.points)

    def block_indices(self, i: int) -> list[int]:
        return [k for k, b in enumerate(self.block) if b == i]

    def base_point(self, k: int) -> tuple[int, ...]:
        """The original exponent vector in Z^n (block tag stripped)."""
        return self.points[k][: self.n]


@dataclass(frozen=True)
class Lifting:
    """One finite float height per Cayley point.

    Liftings are the logs of coefficients (``log_abs_lifting``), so they
    are floats; exactness lives in the integer circuits they are checked
    against.  Any other value, int, Fraction and bool included, and any
    NaN or infinity, raises ValueError.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            if not isinstance(v, float) or not math.isfinite(v):
                raise ValueError(f"lifting values must be finite floats, got {v!r}")

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# Cayley embedding and lifting construction
# ---------------------------------------------------------------------------

def _embed(point_lists: Sequence[Sequence[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    # Block i >= 1 is tagged with e_{i-1} in Z^(k-1); e_0 is the empty tag.
    k = len(point_lists)
    out: list[tuple[int, ...]] = []
    for i, pts in enumerate(point_lists):
        tag = tuple(1 if j == i - 1 else 0 for j in range(k - 1))
        for p in pts:
            out.append(tuple(p) + tag)
    return out


def build_cayley(system: SupportSystem) -> CayleyConfig:
    """Stack the supports with standard-basis tags into one configuration.

    The result lives in Z^(2n-1) and is ordered block-major, so Cayley index
    equals the flat position of the matching coefficient.
    """
    n = system.n
    points = _embed([s.points for s in system.supports])
    block: list[int] = []
    origin: list[int] = []
    for i, s in enumerate(system.supports):
        block.extend([i] * len(s))
        origin.extend(range(len(s)))
    return CayleyConfig(
        points=tuple(points),
        block=tuple(block),
        origin_index=tuple(origin),
        n=n,
    )


def log_abs_lifting(system: SupportSystem) -> Lifting:
    """The lifting log|c| per Cayley point, block-major."""
    values: list[float] = []
    for coeffs in system.coefficients:
        values.extend(log_abs(c) for c in coeffs)
    return Lifting(values=tuple(values))


# ---------------------------------------------------------------------------
# Exact integer linear algebra
# ---------------------------------------------------------------------------

def det_adjugate(matrix: Sequence[Sequence[int]]) -> tuple[int, IntMatrix | None]:
    """Exact determinant and adjugate, ``adj @ M == M @ adj == det * I``.

    One fraction-free (Bareiss) Gauss-Jordan pass over ``[M | I]``: step k
    eliminates column k from every other row, and each division is by the
    previous pivot and exact, so every entry stays a minor of ``[M | I]``.
    The left block ends as ``p * I`` and the right block as ``p * M^-1``,
    with p the determinant of the row-swapped matrix.  A zero pivot swaps in
    a lower row and flips the sign.  A singular matrix returns ``(0, None)``.
    """
    n = len(matrix)
    a = [
        [int(x) for x in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0, None
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i, row in enumerate(a):
            if i == k:
                continue
            f = row[k]
            for j in range(k + 1, 2 * n):
                row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def int_det(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant, from a full ``det_adjugate`` pass (adjugate
    included); a caller that needs both should call ``det_adjugate``."""
    return det_adjugate(matrix)[0]


def solve_exact(matrix: Sequence[Sequence[int]], rhs: Sequence[float]) -> list[float]:
    """Solve an integer square system for a float right-hand side.

    Takes det and the exact adjugate from one ``det_adjugate`` pass, so the
    only rounding is one multiply-add per entry and one division.
    """
    det, adj = det_adjugate(matrix)
    if det == 0:
        raise SingularExponentMatrix("singular exponent matrix")
    return apply_adjugate(det, adj, rhs)


def apply_adjugate(det: int, adj: IntMatrix, rhs: Sequence[float]) -> list[float]:
    """``adj @ rhs / det`` for a nonzero ``det`` and its exact adjugate.

    Each entry adds its products one at a time in column order to a running
    sum from 0.0 and divides once, so every solve from a ``det_adjugate``
    pass rounds alike, on every Python: the builtin ``sum`` of floats is
    compensated from Python 3.12 on.  A sum from 0.0 is never -0.0.
    """
    gamma = []
    for row in adj:
        acc = 0.0
        for a, x in zip(row, rhs):
            acc += a * x
        gamma.append(acc / det)
    return gamma
