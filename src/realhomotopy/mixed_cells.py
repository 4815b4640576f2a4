"""Mixed cells of the lifted Cayley configuration and their circuit inequalities.

A candidate picks one edge (two points) per block.  It is a mixed cell of the
regular subdivision exactly when some vector gamma makes the lifted values
``<gamma, a> + w(a)`` agree on the two edge points of every block and stay
strictly below on all other points of that block (max / upper-face convention).

Candidates are the per-block edge tuples in ``itertools.product`` order.  A
batched float screen in numpy looks at them a chunk at a time and discards
those that are provably singular or whose float gamma leaves some point
clearly above its block's face.  Floats only ever discard: every survivor is
decided by the exact test (integer determinant, exact solve for gamma from
the fraction-free determinant and adjugate, margin and tie checks), and the
screen's tolerances make each candidate it drops one the exact test rejects.
Cells, normals and TieDegenerate are therefore those of the exact test run on
every candidate.

The stored ``normal`` is the negated gamma.  That orientation makes the normal
double as the branch exponent vector of the toric deformation: the start curve
``x * t**normal`` satisfies the deformed system to leading order as t -> 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import EmptySupport, SingularExponentMatrix, TieDegenerate
from .lattice import (
    CayleyConfig,
    Lifting,
    Scalar,
    det_adjugate,
    int_det,
    solve_exact,
)

TIE_RTOL = 1e-12

# Candidates per float-screen batch: the screen's arrays have this many rows
# whatever the candidate count.
SCREEN_CHUNK = 4096
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MixedCell:
    """One edge per block, the cell normal, and the lattice volume.

    ``edges`` holds per-block point index pairs (indices into the originating
    support, 0-based).  The first index of each pair is the point with the
    smaller lifted value.  ``primitive_normal`` is the normal rescaled to a
    primitive integer vector when its direction is rational, else None.
    """

    edges: tuple[tuple[int, int], ...]
    normal: tuple[Scalar, ...]
    volume: int
    primitive_normal: tuple[int, ...] | None = None

    def cayley_indices(self, config: CayleyConfig) -> list[int]:
        out: list[int] = []
        for i, (p, q) in enumerate(self.edges):
            blk = config.block_indices(i)
            out.extend([blk[p], blk[q]])
        return out


@dataclass(frozen=True)
class CircuitInequality:
    """A primitive integer functional on liftings, supported on one circuit.

    ``coeffs`` maps Cayley point index to an integer coefficient; ``witness``
    is the excluded point whose position relative to the cell the circuit
    decides.  Orientation: the witness coefficient is negative, equivalently
    every lifting that induces the cell satisfies ``<coeffs, w> > 0``.
    """

    coeffs: dict[int, int]
    witness: int

    def nonzeros(self) -> int:
        return sum(1 for v in self.coeffs.values() if v != 0)

    def l1(self) -> int:
        return sum(abs(v) for v in self.coeffs.values())

    def dot(self, values: Sequence[Scalar]) -> Scalar:
        return sum(c * values[k] for k, c in self.coeffs.items())


@dataclass(frozen=True)
class MixedCellSet:
    """All mixed cells of one lifted configuration plus their circuit system."""

    cells: tuple[MixedCell, ...]
    inequalities: tuple[CircuitInequality, ...]

    def total_volume(self) -> int:
        return sum(c.volume for c in self.cells)


def mixed_cell_count_bound(n: int, t: int) -> int:
    """Cap on real zeros of a patchworked system: ``2^(n+1) * C(tn-n, n)``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if t < 2:
        raise ValueError("t must be at least 2")
    return 2 ** (n + 1) * math.comb(t * n - n, n)


def _primitive_direction(
    vec: Sequence[Scalar], rtol: float = 1e-9, max_den: int = 64
) -> tuple[int, ...] | None:
    """Rescale a vector to a primitive integer vector of the same direction.

    Returns None when no small-denominator rational direction matches within
    ``rtol``; exact rational input always succeeds.
    """
    if all(isinstance(v, (int, Fraction)) for v in vec):
        fracs = [Fraction(v) for v in vec]
        denom = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        ints = [int(f * denom) for f in fracs]
        if not any(ints):
            return None
        g = math.gcd(*ints)
        return tuple(v // g for v in ints)
    floats = [float(v) for v in vec]
    pivot = max(range(len(floats)), key=lambda i: abs(floats[i]))
    if floats[pivot] == 0.0:
        return None
    ratios = [Fraction(v / floats[pivot]).limit_denominator(max_den) for v in floats]
    denom = math.lcm(*(r.denominator for r in ratios))
    ints = [int(r * denom) for r in ratios]
    g = math.gcd(*ints)
    if g == 0:
        return None
    ints = [v // g for v in ints]
    if floats[pivot] < 0:
        ints = [-v for v in ints]
    scale = math.sqrt(sum(v * v for v in floats)) / math.sqrt(sum(v * v for v in ints))
    err = max(abs(f - scale * v) for f, v in zip(floats, ints))
    if err > rtol * max(abs(f) for f in floats):
        return None
    return tuple(ints)


def _order_edge(p: int, q: int, lifted: Sequence[Scalar]) -> tuple[int, int]:
    # Lower-lifted point first; deterministic tiebreak by index.
    if (lifted[p], p) <= (lifted[q], q):
        return p, q
    return q, p


class _FloatScreen:
    """Batched float test that discards edge tuples the exact test would reject.

    Per block it holds the local index pairs in ``combinations`` order, their
    difference rows (exact integer differences, then rounded once) and the
    float right-hand sides of the equality constraints for gamma.
    """

    def __init__(
        self,
        blocks: list[list[int]],
        base: Sequence[Sequence[int]],
        lifting: Sequence[Scalar],
    ) -> None:
        n = len(blocks)
        self.n = n
        self.pairs = [
            list(itertools.combinations(range(len(blk)), 2)) for blk in blocks
        ]
        values = np.array([float(v) for v in lifting])
        self.shape = tuple(len(p) for p in self.pairs)
        self.first: list[np.ndarray] = []
        self.diff: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []
        self.points: list[np.ndarray] = []
        self.lift: list[np.ndarray] = []
        for blk, pairs in zip(blocks, self.pairs):
            p_idx = np.array([p for p, _ in pairs], dtype=np.intp)
            q_idx = np.array([q for _, q in pairs], dtype=np.intp)
            self.first.append(p_idx)
            self.diff.append(
                np.array(
                    [
                        [base[blk[p]][j] - base[blk[q]][j] for j in range(n)]
                        for p, q in pairs
                    ],
                    dtype=float,
                )
            )
            w = values[blk]
            self.rhs.append(w[q_idx] - w[p_idx])
            self.points.append(np.array([base[k] for k in blk], dtype=float))
            self.lift.append(w)
        self.scale = 1.0 + float(np.max(np.abs(values)))
        self.max_coord = max(float(np.max(np.abs(pts))) for pts in self.points)
        self.total = math.prod(self.shape)

    def candidates(self) -> Iterator[tuple[tuple[int, int], ...]]:
        """The surviving per-block local pairs, in ``itertools.product`` order."""
        for start in range(0, self.total, SCREEN_CHUNK):
            flat = np.arange(start, min(start + SCREEN_CHUNK, self.total))
            idx = np.unravel_index(flat, self.shape)
            with np.errstate(all="ignore"):
                keep = self._keep(idx)
            for c in np.flatnonzero(keep):
                yield tuple(self.pairs[i][idx[i][c]] for i in range(self.n))

    def _keep(self, idx: tuple[np.ndarray, ...]) -> np.ndarray:
        # Every comparison that drops a candidate is False on NaN, so values
        # that overflow the float range leave the candidate to the exact test.
        n = self.n
        count = len(idx[0])
        mat = np.stack([self.diff[i][idx[i]] for i in range(n)], axis=1)
        rhs = np.stack([self.rhs[i][idx[i]] for i in range(n)], axis=1)
        row_norm = np.sqrt(np.sum(mat * mat, axis=2))
        hadamard = np.prod(row_norm, axis=1)
        det = np.abs(np.linalg.det(mat))
        growth = n * 2.0**n
        # Singular: with partial pivoting the float determinant of an integer
        # matrix is off by about n * 2^n * eps * H at most (H the Hadamard
        # bound), so below 2^-19 when H * n * 2^n <= 2^33 (H <= 2^30 at
        # n = 2), and |det| < 0.5 means the integer determinant is 0.
        singular = (det < 0.5) & (hadamard * growth <= 2.0**33)
        # Margins are trusted only for well-conditioned matrices.  Every
        # cofactor of an integer matrix is at most H / (smallest row norm), so
        # cond_2 <= n^1.5 * H * (largest row norm) / (|det| * smallest row
        # norm); asking cond_2 * n * 2^n * eps <= 1e-9 keeps the float gamma
        # within 1e-9 * |gamma| of the exact-path gamma.  Rows are differences
        # of distinct integer points, so the smallest norm is at least 1.
        spread = np.max(row_norm, axis=1) / np.min(row_norm, axis=1)
        cond_det = n**1.5 * hadamard * spread
        trusted = cond_det * (growth * _EPS) <= 1e-9 * det
        # Untrusted matrices may be singular, which would make the batched
        # solve raise; an identity stands in and their margins go unused.
        mat[~trusted] = np.eye(n)
        rhs[~trusted] = 0.0
        gamma = np.linalg.solve(mat, rhs[:, :, None])[:, :, 0]
        # A margin is a difference of two lifted values, each at most
        # scale * (1 + |gamma|_1 * max|coord|) in size.  Their rounding, the
        # 1e-9 relative error of gamma spread over 2n * max|coord|, the
        # rounding of the exact path's own float gamma and margins (at most
        # about 1e-9 * scale at this conditioning), and its tie tolerance
        # 1e-12 * scale all fit well inside tau.  So a float margin below
        # -tau is an exact-path margin below the tie tolerance, and the exact
        # test would reject the candidate without a tie.
        gamma_l1 = np.sum(np.abs(gamma), axis=1)
        tau = 1e-6 * self.scale * (1.0 + gamma_l1 * (1.0 + self.max_coord))
        # The edge's own points sit within rounding of the face, far inside
        # tau, so the highest lifted value of the block decides.
        rows = np.arange(count)
        infeasible = np.zeros(count, dtype=bool)
        for i in range(n):
            pts = self.points[i]
            lifted = np.broadcast_to(self.lift[i], (count, len(pts))).copy()
            for j in range(n):
                lifted += gamma[:, j, None] * pts[None, :, j]
            face = lifted[rows, self.first[i][idx[i]]]
            infeasible |= np.max(lifted, axis=1) - face > tau
        return ~(singular | (trusted & infeasible))


def enumerate_mixed_cells(config: CayleyConfig, lifting: Lifting) -> MixedCellSet:
    """All mixed cells of the subdivision induced by ``lifting``.

    Per-block edge tuples pass a batched float screen first, which discards
    provably singular ones and ones whose float gamma puts some point of a
    block clearly above the block's face.  Each survivor is decided exactly:
    an integer determinant, an exact solve of the n equality constraints for
    gamma, then the strict exclusion margins.  A margin inside the tie
    tolerance raises TieDegenerate when no other margin rejects the
    candidate; exact rational liftings use exact zero tests instead.
    """
    if len(lifting) != config.m:
        raise ValueError("lifting length must equal the Cayley point count")
    n = config.n
    values = list(lifting.values)
    exact = lifting.is_exact()
    scale = 1.0 + max(abs(float(v)) for v in values)
    blocks: list[list[int]] = [config.block_indices(i) for i in range(n)]
    for i, blk in enumerate(blocks):
        if len(blk) < 2:
            raise EmptySupport(f"support {i} has fewer than 2 points")

    base = [config.base_point(k) for k in range(config.m)]
    cells: list[MixedCell] = []
    for cand in _FloatScreen(blocks, base, values).candidates():
        edges = tuple(
            _order_edge(
                blk[p], blk[q], values
            )
            for blk, (p, q) in zip(blocks, cand)
        )
        rows = [
            [base[a][j] - base[b][j] for j in range(n)] for a, b in edges
        ]
        det = int_det(rows)
        if det == 0:
            continue
        rhs = [values[b] - values[a] for a, b in edges]
        gamma = solve_exact(rows, rhs)

        # A violated margin rejects the candidate outright; a tie only makes
        # the lifting degenerate when the candidate is otherwise feasible,
        # i.e. the tied point sits exactly on the candidate's face.
        feasible = True
        tied_point: int | None = None
        for i, blk in enumerate(blocks):
            a_top, _ = edges[i]
            face = sum(g * c for g, c in zip(gamma, base[a_top])) + values[a_top]
            for k in blk:
                if k == edges[i][0] or k == edges[i][1]:
                    continue
                margin = face - (
                    sum(g * c for g, c in zip(gamma, base[k])) + values[k]
                )
                if exact:
                    tie = margin == 0
                else:
                    tie = abs(float(margin)) < TIE_RTOL * scale
                if tie:
                    tied_point = k
                elif margin < 0:
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue
        if tied_point is not None:
            raise TieDegenerate(
                f"lifting ties on point {tied_point} against cell {edges}"
            )

        normal = tuple(-g for g in gamma)
        cells.append(
            MixedCell(
                edges=tuple(
                    (config.origin_index[a], config.origin_index[b]) for a, b in edges
                ),
                normal=normal,
                volume=abs(det),
                primitive_normal=_primitive_direction(normal),
            )
        )

    cells.sort(key=lambda c: c.edges)
    inequalities: list[CircuitInequality] = []
    for cell in cells:
        inequalities.extend(circuit_inequalities(cell, config))
    return MixedCellSet(cells=tuple(cells), inequalities=tuple(inequalities))


def circuit_inequalities(
    cell: MixedCell, config: CayleyConfig
) -> list[CircuitInequality]:
    """One circuit inequality per Cayley point excluded from the cell.

    Each vector is the unique affine dependence of the 2n cell points plus the
    excluded point, reduced to a primitive integer vector and oriented so the
    excluded point's entry is negative.  With M the homogenized 2n x 2n cell
    matrix, d = det M and ``adj M @ M == d * I`` (both from one
    ``det_adjugate`` pass), the dependence of an excluded point p is
    ``(p @ adj M, -d)``: the cell rows weighted by ``p @ adj M`` sum to
    ``d * p``.  The kernel is one-dimensional, so this is the vector of
    alternating maximal minors up to scale.
    """
    cell_idx = cell.cayley_indices(config)
    matrix = [list(config.points[k]) + [1] for k in cell_idx]
    det, adj = det_adjugate(matrix)
    if det == 0:
        raise SingularExponentMatrix("cell points are affinely dependent")
    size = len(matrix)
    out: list[CircuitInequality] = []
    cell_set = set(cell_idx)
    for alpha in range(config.m):
        if alpha in cell_set:
            continue
        point = list(config.points[alpha]) + [1]
        dep = [
            sum(point[j] * adj[j][i] for j in range(size)) for i in range(size)
        ] + [-det]
        g = math.gcd(*dep)
        dep = [v // g for v in dep]
        if dep[-1] > 0:
            dep = [-v for v in dep]
        coeffs = {k: v for k, v in zip(cell_idx + [alpha], dep) if v != 0}
        out.append(CircuitInequality(coeffs=coeffs, witness=alpha))
    return out
