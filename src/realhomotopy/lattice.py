"""Supports, coefficients, liftings, the Cayley embedding, and exact lattice arithmetic.

Everything combinatorial downstream (cell enumeration, circuit vectors, Gale
duals, binomial start systems) routes its integer linear algebra through this
module.  All of it runs on Python ints, so exponent arithmetic is exact at any
magnitude; numpy never touches these code paths.  Determinants, adjugates and
exact solves all come from one fraction-free Gauss-Jordan elimination
(``det_adjugate``); kernel bases come from a unimodular row echelon form.
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
    exact coefficients never overflow an intermediate float.
    """
    if isinstance(value, Fraction):
        if value == 0:
            raise ValueError("log of zero coefficient")
        return math.log(abs(value.numerator)) - math.log(value.denominator)
    v = abs(float(value))
    if v == 0.0:
        raise ValueError("log of zero coefficient")
    return math.log(v)


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
    if pts != tuple(tuple(p) for p in points):
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
    """One real height per Cayley point."""

    values: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        for v in self.values:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError("lifting values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def as_floats(self) -> list[float]:
        return [float(v) for v in self.values]

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for v in self.values)


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
    """Exact determinant, the first half of ``det_adjugate``."""
    return det_adjugate(matrix)[0]


def solve_exact(matrix: Sequence[Sequence[int]], rhs: Sequence[Scalar]) -> list[Scalar]:
    """Solve an integer square system for a rational or float right-hand side.

    Takes det and the exact adjugate from one ``det_adjugate`` pass, so the
    only rounding is one multiply-add per entry when the right-hand side is
    float; Fraction input stays exact.
    """
    det, adj = det_adjugate(matrix)
    if det == 0:
        raise SingularExponentMatrix("singular exponent matrix")
    n = len(matrix)
    out: list[Scalar] = []
    for i in range(n):
        acc = sum(adj[i][j] * rhs[j] for j in range(n))
        if isinstance(acc, (int, Fraction)):
            out.append(Fraction(acc, det))
        else:
            out.append(acc / det)
    return out


def _unimodular_row_echelon(
    matrix: Sequence[Sequence[int]],
) -> tuple[IntMatrix, IntMatrix, list[int]]:
    """Row echelon form with its unimodular transform: U @ M = H, |det U| = 1.

    Returns (H, U, pivot_columns).  Works for any rectangular integer matrix;
    zero rows of H sit at the bottom and the matching rows of U span the left
    kernel of M as a lattice.
    """
    h = [[int(x) for x in row] for row in matrix]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # Chase the column to a single nonzero entry at row r via gcd steps.
        while True:
            nz = [i for i in range(r, rows) if h[i][c] != 0]
            if not nz:
                break
            i_min = min(nz, key=lambda i: abs(h[i][c]))
            if i_min != r:
                h[r], h[i_min] = h[i_min], h[r]
                u[r], u[i_min] = u[i_min], u[r]
            done = True
            for i in range(r + 1, rows):
                if h[i][c] != 0:
                    q = h[i][c] // h[r][c]
                    for j in range(cols):
                        h[i][j] -= q * h[r][j]
                    for j in range(rows):
                        u[i][j] -= q * u[r][j]
                    if h[i][c] != 0:
                        done = False
            if done:
                break
        if h[r][c] == 0:
            continue
        pivots.append(c)
        r += 1
    return h, u, pivots


def kernel_basis(matrix: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Lattice basis of the right kernel of an integer matrix.

    Returns (basis_vectors, rank).  The basis vectors are rows; they generate
    the full integer kernel because they come from a unimodular transform.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    transposed = [[matrix[i][j] for i in range(rows)] for j in range(cols)]
    _, u, pivots = _unimodular_row_echelon(transposed)
    rank = len(pivots)
    return [u[i] for i in range(rank, cols)], rank

