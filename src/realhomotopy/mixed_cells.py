"""Mixed cells of the lifted Cayley configuration and their circuit inequalities.

A candidate picks one edge (two points) per block.  It is a mixed cell of the
regular subdivision exactly when some vector gamma makes the lifted values
``<gamma, a> + w(a)`` agree on the two edge points of every block and stay
strictly below on all other points of that block (max / upper-face convention).

The circuit of an excluded point, the affine dependence of the 2n cell points
and that point, evaluates on the lifting to the point's exclusion margin times
the size of its coefficient.  So a cell is cut out by its circuit inequalities
(the secondary fan of Gelfand, Kapranov and Zelevinsky): the exact test
decides a candidate by the signs of its circuits, which are also the
inequalities the certificate checks.

Candidates are the per-block point pairs in ``itertools.product`` order.
A float screen in numpy discards candidates before the exact test, and only
ever discards: its tolerances make each candidate it drops one the exact
test rejects.  Every survivor is decided by the exact test (integer
determinant and circuits, and the signs and ties of the circuits' values on
the lifting), so cells, normals, circuits and TieDegenerate are those of
the exact test run on every candidate.

One screen serves every n, an LP-free variant of the depth-first extension
of MixedVol (Gao, Li and Wu 2005).  The gammas that level n - 1 independent
point pairs form a line, whose direction is exact integers, the (n-1)-minors
of the pairs' edges (``_Lines``).  The points of those pairs' blocks cut the
line to one interval, read from their integer slopes along it and widened by
a tolerance with a written rounding argument (``_Cut``).  At n = 2 a line is
one pair and its interval the pair's dual edge: the mixed cells are the
crossings of the two tropical curves, each dual to the subdivision the
lifting induces on its block (Huber and Sturmfels 1995; Maclagan and
Sturmfels 2015).  The screen (``_Screen``) runs two passes.  At n >= 3 a
block pass keeps a pair only if some affinely independent n-point subset of
its block that holds the pair has a nonempty interval; at n = 2 these
subsets are the pairs themselves.  The crossing test then takes, for each
middle (one kept pair of each of blocks 1..n-2), the lines through it and a
kept pair of block 0, cut by blocks 0..n-2, and the lines through it and a
kept pair of block n-1, cut by block n-1.  Each candidate's gamma lies on one
line of each: an exactly zero integer determinant drops it as singular, and
otherwise Cramer's rule puts its gamma on both lines, and it survives when
both parameters lie in their intervals.  That is O(1) per candidate, and
with exponents near 10^5 at n = 2, or 10^3 at n = 3, it keeps about as
few candidates as with small ones (ROADMAP items 9 and 17).  At n = 1 the gammas
that level a pair form a point, no line exists, and every candidate reaches
the exact test.

The screen is split in two.  A plan (``_Plan``) holds all it reads of the
configuration alone: the base points in the exact dtype, the pair tables,
each pair's edge in grain units and its squared length, and at n = 2 every
pair's line and its cut by its block, 43-55 bytes per pair and point of its
block (``_plan``).  A screen adds one lifting; at n >= 3 it builds the lines
of both passes per solve, a chunk at a time, as they depend on the pairs the
lifting keeps.  Coefficient vectors on one support are this solver's
natural traffic (the certificate lives in the coefficient space of a fixed
support), so plans are cached, keyed by the configuration's value, its
points included; only plans of at most SCREEN_CHUNK pairs are, which bounds
the cache's memory, and larger ones are built per solve.  That LRU cache is
the screen's only one.  Cells themselves are not memoized: a cell depends
on the lifting.

Survivors leave the screen as one array of rows of pair indices, one column
per block, and the exact stage after it is a handful of array passes with no
loop over survivors: the plan's pair tables give each edge's Cayley
endpoints, one comparison of the lifting puts the lower-lifted one first,
and the plan's exact points stack the edge matrices as one ``(s, n, n)``
array.  One batched elimination (``_det_adjugate``, the Laplace expansion
of ``_minors``, which the screen's line frames use too) gives every
determinant and adjugate, one mask drops the singular survivors, and the
gammas are one float array rounded as ``lattice.apply_adjugate`` rounds a
single solve.  The circuits of all survivors of a solve are built from
those arrays in one pass as one exact table (``CircuitTable``, one row per
circuit) and evaluated on the float lifting once; one ``np.lexsort`` of the
endpoints puts the cells in the order of their edges, and ``MixedCell``
objects are made for the kept cells alone.  The table's integers are int64
wherever a Hadamard bound on the base points proves every entry and every
intermediate below 2^53 (``_exact_dtype``), and Python ints in object
arrays elsewhere; one code path serves both.  The table is the only form of
a circuit inequality: the returned ``MixedCellSet`` keeps the cells' rows,
their values and the lifting, which is all the certificate reads.

The stored ``normal`` is the negated gamma.  That orientation makes the normal
double as the branch exponent vector of the toric deformation: the start curve
``x * t**normal`` satisfies the deformed system to leading order as t -> 0.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EmptySupport, SingularExponentMatrix, TieDegenerate
from .lattice import CayleyConfig, Lifting

# Unused here: the enumeration calls no elimination of lattice.py, but
# perfbench/tracing.py's LEAVES wraps these names in this module, whose
# counters then read 0 (ROADMAP item 1a deletes those shims).
from .lattice import int_det, solve_exact  # noqa: F401

TIE_RTOL = 1e-12

# Candidates per float-screen batch: the screens' arrays have about this
# many rows whatever the candidate count.
SCREEN_CHUNK = 4096
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class MixedCell:
    """One edge per block, the cell normal, and the lattice volume.

    ``edges`` holds per-block point index pairs (indices into the originating
    support, 0-based).  The first index of each pair is the point with the
    smaller lifted value.
    """

    edges: tuple[tuple[int, int], ...]
    normal: tuple[float, ...]
    volume: int

    @functools.cached_property
    def primitive_normal(self) -> tuple[int, ...] | None:
        """The normal rescaled to a primitive integer vector when its
        direction is rational, else None."""
        return _primitive_direction(self.normal)


@dataclass(frozen=True, eq=False)
class CircuitTable:
    """Circuit inequalities as one exact table, one row per inequality.

    Row r puts the coefficient ``coeffs[r, c]`` on Cayley point
    ``points[r, c]``, and its last column is the witness, the excluded point
    whose position relative to the cell the circuit decides.  The rows of a
    cell hold its points ``a_0, b_0, ..., a_{n-1}, b_{n-1}`` and then the
    witness; a zero coefficient marks a point off the circuit.  Coefficients
    are exact integers: int64 where ``_exact_dtype`` proves every entry and
    every ``|zeta|_1`` below 2^53, else Python ints in an object array;
    either way every float read of them (``values``, ``certify``) is the
    same bit for bit.  Each row is primitive and oriented with a negative
    witness coefficient; equivalently, every lifting that induces the cell
    gives each of the cell's rows a positive value (``values``).  Tables
    compare by identity.
    """

    points: np.ndarray
    coeffs: np.ndarray

    def values(self, lifting: Lifting) -> np.ndarray:
        """``zeta . w`` per row in float64, a new array on every call.

        Each row sums from 0.0 one column at a time, so a value is bit for
        bit the running sum from 0.0 of ``c * w[k]`` over the row's nonzero
        coefficients in column order, each integer coefficient rounded to a
        float as Python does.
        A zero coefficient adds a zero of either sign, which changes no bit:
        a running sum that starts at 0.0 is never -0.0.  ``terms.sum(axis=1)``
        would not do: numpy's pairwise, unrolled reduction sums rows of 9 or
        more columns (n >= 4) in another order.
        """
        return _values(self.points, self.coeffs, np.array(lifting.values, dtype=float))

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class MixedCellSet:
    """All mixed cells of one lifted configuration plus their circuit system.

    ``inequalities`` holds the circuits of every cell, cell by cell, and
    ``values`` (read only) each row's ``zeta . w`` on ``lifting``, the
    lifting the cells were enumerated on: the one evaluation of the table
    that decides the cells and that the certificate reads.  Sets compare by
    identity: compare ``cells`` and the tables' arrays instead.
    """

    cells: tuple[MixedCell, ...]
    inequalities: CircuitTable
    lifting: Lifting
    values: np.ndarray

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
    floats: Sequence[float], rtol: float = 1e-9, max_den: int = 64
) -> tuple[int, ...] | None:
    """Rescale a vector to a primitive integer vector of the same direction.

    Returns None when no small-denominator rational direction matches within
    ``rtol``.
    """
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


def _pair_tables(sizes: tuple[int, ...]) -> tuple:
    """Index tables for blocks of the given sizes, stacked block by block.

    Returns the flat index of each block's first point; the flat indices of
    both points of every pair, each block's pairs in combinations order; and
    each block's first pair index and the total.  Point k pairs with the
    ``counts[k]`` later points of its block, up to its block's ``last``
    point: pair p of the run of k, counted from 1, has second point k + p.
    """
    starts = np.array((0, *itertools.accumulate(sizes)))
    last = (starts[1:] - 1).repeat(sizes)
    points = np.arange(starts[-1])
    counts = last - points
    first = points.repeat(counts)
    # Pair index i in the run of k has second point k + 1 + i - (the run's
    # first pair index), and that first index less k is
    # cumsum(counts)[k] - last[k].
    second = np.arange(1, len(first) + 1) - (counts.cumsum() - last).repeat(counts)
    pair_starts = np.array((0, *itertools.accumulate(math.comb(t, 2) for t in sizes)))
    return starts[:-1], first, second, pair_starts


def _exact_dtype(n: int, largest: int) -> type:
    """The dtype of the exact arrays for base points in Z^n whose
    coordinates are at most ``largest`` in size: int64 when
    ``(2n + 1)^2 * (n * (2 largest)^2)^n < 2^106``, else object (Python ints).

    Every circuit entry comes from one edge matrix D (rows ``a_i - b_i``)
    and one excluded point k of block j, with ``v = k - b_j``: ``d = det
    D``; ``lam_i``, the determinant of D with row i replaced by v (Cramer:
    ``lam = v @ adj D``); and ``d - lam_j``, that of D with row j replaced by
    ``a_j - k``.  Each of these n x n integer matrices has entries at most
    ``2 largest``, so rows of 2-norm at most ``R = 2 largest sqrt(n)``, and by
    Hadamard's inequality its determinant is at most ``H = R^n``.  An entry
    of ``adj D`` is an (n-1)-minor, at most ``R^(n-1)``, so every partial sum
    of ``v @ adj D`` is at most ``|v|_1 R^(n-1) <= sqrt(n) H``, and so is
    every partial sum of ``(k - a_j) @ adj D``, ``lam - d e_j``.  A row puts
    ``lam_i`` on ``a_i``, ``-lam_i`` on ``b_i`` (i != j), ``d - lam_j`` on
    ``b_j`` and ``-d`` on k, so ``|zeta|_1 <= (2n + 1) H``; dividing by the
    gcd only shrinks it.  The bound says ``(2n + 1) H < 2^53``, so every
    entry, every intermediate and every ``|zeta|_1`` is an integer below
    2^53: int64 arithmetic on them is exact, and so is each conversion to
    float64, which gives the values that Python ints give.
    """
    if (2 * n + 1) ** 2 * (n * (2 * largest) ** 2) ** n < 2**106:
        return np.int64
    return object


def _minors(rows: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """Every maximal minor of a stack of r x n integer matrices, exactly.

    Keyed by an r-subset of the columns in increasing order, each value is
    the determinant of the r rows on those columns, one per matrix, in the
    arrays' dtype.  The minors of the first i rows give those of the first
    i + 1 by Laplace expansion along row i: ``n 2^(n-1)`` products of an
    entry and a minor at r = n - 1.
    """
    count, r, n = rows.shape
    if not r:
        return {(): np.ones(count, dtype=rows.dtype)}
    level = {(j,): rows[:, 0, j] for j in range(n)}
    for i in range(1, r):
        grown: dict[tuple[int, ...], np.ndarray] = {}
        for cols, minor in level.items():
            for j in range(n):
                if j in cols:
                    continue
                term = minor * rows[:, i, j]
                # Row i's entry in column j takes the parity of the
                # subset's columns after j.
                if sum(c > j for c in cols) % 2:
                    term = -term
                key = tuple(sorted((*cols, j)))
                grown[key] = grown[key] + term if key in grown else term
        level = grown
    return level


def _det_adjugate(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The determinant and the adjugate of every matrix of an ``(s, n, n)``
    integer stack, exactly and in the stack's dtype, with no pivoting.

    ``adj[j, i]`` is ``(-1)^(i + j)`` times the minor without row i and
    column j, read from the ``_minors`` of the n - 1 rows other than i (at
    n = 1 those of no rows, all 1).  The determinant expands along row 0,
    ``sum_j M[0, j] adj[j, 0]``.  A singular matrix gets determinant 0 and
    its adjugate all the same.

    On an int64 stack of edge matrices of base points under ``_exact_dtype``'s
    bound nothing wraps.  Their entries are at most ``2 largest``, so their
    rows have 2-norm at most ``R = 2 largest sqrt(n)``, and the bound says
    ``(2n + 1) R^n < 2^53``.  By Hadamard's inequality a minor on k rows is
    at most ``R^k``, and the Laplace step that makes a minor on k + 1 <= n
    rows, the determinant's included, sums at most n products of an entry
    and such a minor.  So each of its partial sums is at most ``n 2 largest
    R^k = sqrt(n) R^(k+1) <= sqrt(n) R^n``, below 2^53.  Object stacks of
    Python ints are exact at any size.
    """
    n = matrices.shape[1]
    adj = np.empty_like(matrices)
    everything = tuple(range(n))
    for i in range(n):
        minors = _minors(matrices[:, list(everything[:i] + everything[i + 1 :])])
        for j in range(n):
            minor = minors[everything[:j] + everything[j + 1 :]]
            adj[:, j, i] = -minor if (i + j) % 2 else minor
    det = matrices[:, 0, 0] * adj[:, 0, 0]
    for j in range(1, n):
        det += matrices[:, 0, j] * adj[:, j, 0]
    return det, adj


def _frames(units: np.ndarray) -> np.ndarray:
    """The frame of each line, from the edges U (n - 1 rows in grain units)
    of the pairs it levels, exactly: one n x n integer matrix per line.

    Row n - 1 is the direction d, the signed (n-1)-minors of U, so that
    ``<d, x> = det [U; x]``; d is 0 exactly when the pairs are dependent,
    and ``(-u_1, u_0)`` at n = 2.  Row i < n - 1 is ``cof_i``, so that
    ``<cof_i, x>`` is the determinant of ``M = [U; d]`` with row i replaced
    by x (Cramer's numerator).  As ``U d = 0``, ``adj M = [U^T adj G, d]``
    with ``G = U U^T`` and ``det G = |d|^2 = det M`` (Cauchy-Binet), so
    ``cof_i = U^T adj(G) e_i``: u itself at n = 2.
    """
    count, k, n = units.shape
    if k == 1:
        # One pair: the adjugate of a 1 x 1 Gram matrix is 1, and d is u
        # turned a quarter.
        frame = np.concatenate((units, units[..., ::-1]), axis=1)
        frame[:, 1, 0] *= -1
        return frame
    everything, inner = tuple(range(n)), tuple(range(k))
    frame = np.empty((count, n, n), dtype=units.dtype)
    top = _minors(units)
    for j in range(n):
        minor = top[everything[:j] + everything[j + 1 :]]
        frame[:, -1, j] = -minor if (n - 1 - j) % 2 else minor
    gram = units @ units.transpose(0, 2, 1)
    for i in range(k):
        minors = _minors(gram[:, inner[:i] + inner[i + 1 :]])
        terms = []
        for j in range(k):
            # adj(G)[j, i] is (-1)^(i+j) times the minor of G without row i
            # and column j.
            term = minors[inner[:j] + inner[j + 1 :]][:, None] * units[:, j]
            terms.append(-term if (i + j) % 2 else term)
        frame[:, i] = sum(terms[1:], terms[0])
    return frame


class _Plan:
    """What the screen reads of a configuration, whatever its lifting.

    The pair tables (each pair's Cayley endpoints as a row of ``pairs``,
    whose columns ``first`` and ``second`` view, each block's first point
    ``starts`` and first pair ``pair_starts``), each point's ``block``, the
    blocks of a cell's excluded points in the order of its circuit table's
    rows (``rest``: block j's ``t_j - 2``), the base points as ``ints`` in
    the exact dtype (``_exact_dtype``), and the grain, the gcd of all
    differences (that of the pairs' differences, which span the others).
    The exact stage and the circuit table read these too.  Each pair's edge
    in grain units, ``u = (a - b) / grain``, is in ``units`` and its exact
    ``|u|^2`` in ``square``, in the dtype of ``units``; with floats,
    ``norm`` holds each ``|u|`` and ``reach`` each block's largest.  At
    n = 2 the plan also holds ``lines``, the line of every pair
    (``_Lines``, which reads its ``|d|^2 = |u|^2`` from ``square``), and
    ``cut``, those lines cut by their blocks (``_Cut``): the lifting-free
    half of the whole screen, 25 arrays in all, most of them the cut's, a
    row per pair and a column per point of its block.  One plan serves
    every coefficient vector on its support (``_plan`` caches it), so every
    array a plan holds is read only.

    Every integer of a line is at most ``n^2 reach^(2n-2)`` in size, with
    reach the largest ``|u|``: by Hadamard's inequality d's entries, its
    (n-1)-minors, are at most ``reach^(n-1)``, the entries of its other
    frame rows, (n-1)-minors of ``[U; d]``, at most ``reach^(2n-3)``, and
    their products with a difference (slopes, projections, D and the
    P_i) and every partial sum of the expansions that make them at most
    ``n^2 reach^(2n-2)``.  Below 2^62, ``units``
    and every integer computed from them are int64, exact, and their floats
    within a relative half ulp of the integers; otherwise they are Python
    ints in object arrays.  Where that bound reaches 2^1000, exponents near
    10^150 among them, the floats would leave the float range: such a plan
    holds no floats (``floats`` is False) and its screen drops only exactly
    singular candidates.
    """

    def __init__(self, config: CayleyConfig) -> None:
        n = config.n
        self.n, self.m = n, config.m
        base = [point[:n] for point in config.points]
        sizes = self.sizes = tuple(config.block.count(i) for i in range(n))
        self.starts, first, second, self.pair_starts = _pair_tables(sizes)
        self.pairs = np.stack((first, second), axis=1)
        self.first, self.second = self.pairs.T
        self.rest = np.repeat(np.arange(n), np.subtract(sizes, 2))
        self.block = np.array(config.block, dtype=np.intp)
        largest = max(map(abs, itertools.chain.from_iterable(base)))
        ints = self.ints = np.array(base, dtype=_exact_dtype(n, largest))
        # The pairs' differences span every difference within a block, so
        # their gcd is the grain.
        units = ints.take(self.first, 0) - ints.take(self.second, 0)
        self.grain = int(np.gcd.reduce(units, axis=None))
        if self.grain != 1:
            units //= self.grain
        square = np.add.reduce(units * units, 1)
        bound = n * n * int(np.maximum.reduce(square)) ** (n - 1)
        exact = np.int64 if bound < 2**62 else object
        self.units = units.astype(exact, copy=False)
        self.square = square.astype(exact, copy=False)
        self.floats = bound < 2**1000
        if self.floats:
            self.norm = np.sqrt(square.astype(float))
            self.reach = np.maximum.reduceat(self.norm, self.pair_starts[:-1])
        parts = [self]
        if n == 2:
            # Blocks of fewer points than the largest pad their rows with
            # a's own column, a point of slope and projection 0 that the
            # rule of the line's own points leaves out.
            owner = self.block[self.first]
            local = np.arange(max(sizes))
            inside = local < np.asarray(sizes)[owner][:, None]
            cols = np.where(inside, self.starts[owner][:, None] + local, self.first[:, None])
            pairs = np.arange(len(self.first))[:, None]
            self.lines = _Lines(self, pairs, 1 - owner)
            self.cut = _Cut(self, self.lines, slice(None), cols, 0)
            parts += [self.lines, self.cut]
        for part in parts:
            for array in vars(part).values():
                if type(array) is np.ndarray:
                    array.setflags(False)  # write=False; numpy parses the keyword slowly

    def screen(self, lifting: Sequence[float]) -> _Screen:
        return _Screen(self, lifting)


class _Lines:
    """Lines of gammas, each levelling n - 1 point pairs.

    Line l levels the pairs ``rows[l]`` (pair indices).  In grain units,
    with U the line's edges, d its direction and ``cof_i`` the rows of its
    ``frame`` (``_frames``), the gammas that level the pairs are ``gamma(s)
    = g0 + s d``, with g0 the solution of ``U g0 = r`` and ``<d, g0> = 0``,
    where ``r_i = (w_b - w_a) / grain`` for pair i = (a, b).  By Cramer's
    rule on ``M = [U; d]``, whose determinant is ``|d|^2``, ``<g0, x> =
    sum_i rho_i <cof_i, x>`` with ``rho = r / |d|^2`` (``rho``).  ``det``
    holds ``|d|^2`` exactly, 0 for a line of dependent pairs, and ``n2`` it
    as a float.  Lines that a crossing test reads are made with ``far``,
    the block whose pair its candidates add, and hold ``spread``, that
    block's largest ``|u|`` times ``sum_i prod_{j != i} |u_j|`` over the
    line's pairs (1 at n = 2), a factor of their tolerance (``_Screen``).
    """

    def __init__(self, plan: _Plan, rows: np.ndarray, far=None) -> None:
        self.rows = rows
        self.frame = _frames(plan.units.take(rows, 0))
        k = rows.shape[1]
        if k == 1:
            # One pair: d is u turned a quarter, so |d|^2 is the plan's |u|^2.
            self.det = plan.square[rows[:, 0]]
        else:
            self.det = (self.frame[:, -1] * self.frame[:, -1]).sum(axis=1)
        self.spread = None
        if plan.floats:
            self.n2 = self.det.astype(float)
            if far is not None:
                # sum_i prod_{l != i} |u_l|, the elementary symmetric
                # polynomial of degree k - 1 in the norms: 1 at k = 1.
                self.spread = plan.reach[far]
                if k > 1:
                    sums = [1.0] + [0.0] * (k - 1)
                    for norm in plan.norm[rows].T:
                        for j in range(k - 1, 0, -1):
                            sums[j] = sums[j] + sums[j - 1] * norm
                    self.spread = sums[-1] * self.spread

    def rho(self, screen: _Screen) -> np.ndarray:
        """``rho`` on the screen's lifting, a row per pair and a column per
        line."""
        return screen.r[self.rows.T] / self.n2


class _Cut:
    """The points that cut lines to intervals, and the lifting-free half of
    the intervals' ends.

    Lines ``index`` of ``lines`` are cut by the Cayley points ``cols``
    (a row per line, or one row for all), each measured against ``ref``,
    the first point of the line's pair at ``place`` (its block's).  For a
    point k, with ``v = (k - ref) / grain``, the frame gives the integers
    ``proj_i = <cof_i, v>`` and ``slope = <d, v>``.  Along the line k has
    margin (ref's lifted value less k's) ``grain * (slope * (beta - s))``
    where ``slope != 0``, with ``beta = -c / slope`` and the intercept ``c
    = sum_i rho_i proj_i + (w_k - w_ref) / grain``, and ``-grain * c`` at
    every s where ``slope = 0``.  So the points cut the line to ``[lo,
    hi]``: hi the least beta of the points of positive slope, lo the
    greatest of those of negative slope (``ends``).  The line's own points,
    the ends of its pairs, have margin 0 on it and are left out of the test
    of the points of slope 0.  At n = 2 a line is one pair, ``cof_0 = u``,
    ``d = (-u_1, u_0)``, and its interval is the pair's dual edge, a
    segment of the tropical curve of its block (Huber and Sturmfels 1995).

    With floats, ``proj``, ``up`` and ``down`` (the points of positive and
    negative slope) and ``recip = -1 / slope`` (0 at slope 0) are floats,
    and ``slack`` and ``level`` are the per-point factors of the tolerance:
    over ``scale / grain`` (``scale = 1 + max |w|``), ``slack`` is how far
    a point of nonzero slope widens the end it binds, in s, and ``level``
    bounds the c of a point of slope 0 other than the line's own.  They are
    the crossing test's on lines with a ``spread``, the block pass's on
    the others; ``_Screen`` holds both arguments.
    """

    def __init__(self, plan: _Plan, lines: _Lines, index, cols, place: int) -> None:
        n = plan.n
        rows = lines.rows[index]
        # The line's own points, the ends of its pairs.
        own = plan.first[rows], plan.second[rows]
        self.cols, self.ref = cols, own[0][:, place, None]
        # Lines of dependent pairs, or None when there are none.
        det = lines.det[index]
        self.singular = det == 0 if np.count_nonzero(det) < len(det) else None
        if not plan.floats:
            return
        diffs = plan.ints.take(cols, 0) - plan.ints.take(self.ref, 0)
        if plan.grain != 1:
            diffs //= plan.grain
        diffs = diffs.astype(plan.units.dtype, copy=False)
        products = diffs @ lines.frame[index].transpose(0, 2, 1)
        slope = products[..., -1].astype(float)
        self.proj = products[..., :-1].transpose(2, 0, 1).astype(float, order="C")
        self.up, self.down = slope > 0, slope < 0
        # -1 / slope, which takes beta from c, and 0 at slope 0.
        flat = slope == 0
        self.recip = -1.0 / np.where(flat, -np.inf, slope)
        # The points of slope 0 the rule applies to: not the line's own.
        for points in own:
            for j in range(points.shape[1]):
                flat &= cols != points[:, j, None]
        size = np.abs(slope)
        with np.errstate(all="ignore"):
            # A line of dependent pairs (|d| = 0) gets NaNs here, and
            # ``ends`` calls it empty.
            head = np.abs(self.proj[0])
            for proj in self.proj[1:]:
                head += np.abs(proj)
            head /= lines.n2[index, None]
            if lines.spread is None:
                exact = 1.0 + n * float(plan.reach.max()) ** n
                head += 2.0
                head *= TIE_RTOL + 8 * (n + 2) * _EPS * exact
                self.slack = head / np.maximum(size, 1.0)
            else:
                head += 1.0
                head *= 16 * (n + 2) * _EPS
                head += TIE_RTOL
                # |v|, its squares summed in column order.
                length = diffs.astype(float)
                length *= length
                total = length[..., 0] + length[..., 1]
                for j in range(2, n):
                    total += length[..., j]
                lean = size + np.sqrt(total)
                lean += plan.norm[rows[:, place, None]]
                lean *= 16 * (n + 2) * _EPS
                lean *= lines.spread[index, None]
                lean += head
                lean /= np.maximum(size, 1.0)
                self.slack = lean
        self.level = np.where(flat, head, np.inf)

    def ends(self, screen: _Screen, rho: np.ndarray) -> tuple[np.ndarray, ...]:
        """The widened ends hi and lo of each line's interval on the
        screen's lifting, from the lines' ``rho``, and whether the interval
        is empty."""
        unit, over = screen.unit, screen.over
        c = over[self.cols] - over[self.ref]
        for r, proj in zip(rho, self.proj):
            c += r[:, None] * proj
        beta = c * self.recip
        highs = np.where(self.up, beta, np.inf)
        lows = np.where(self.down, beta, -np.inf)
        # Flat indices of the points that bind each line's ends.
        step = np.arange(0, beta.size, beta.shape[1])
        top, bottom = highs.argmin(axis=1) + step, lows.argmax(axis=1) + step
        slack = self.slack.ravel()
        hi = highs.ravel()[top] + unit * slack[top]
        lo = lows.ravel()[bottom] - unit * slack[bottom]
        empty = (lo > hi) | (c > unit * self.level).any(axis=1)
        if self.singular is not None:
            empty |= self.singular
        return hi, lo, empty


class _Side(NamedTuple):
    """The lines on one side of the crossing test: their pairs, frames and,
    with floats, ``ends``, a column per line: a row per pair of ``rho``,
    the widened ends hi and lo of the line's interval, and r of the pair
    the crossing test reads (block 0's on side a, block n-1's on side
    b)."""

    rows: np.ndarray
    frame: np.ndarray
    ends: np.ndarray | None


class _Screen:
    """The screen of one lifting: one interval per line, one O(1) test per
    candidate.

    Notation as in ``_Lines`` and ``_Cut``, with ``scale = 1 + max |w|``,
    ``T = TIE_RTOL * scale`` and reach the largest ``|u|`` of all pairs.

    Block pass (n >= 3).  Each n-point subset S of a block gives the line
    that levels the pairs joining S's first point s0 to its others, cut by
    the block's points against s0.  A pair is kept when some affinely
    independent S that holds it (d != 0) has a nonempty interval, and when
    no such S holds it; the others are dropped.  At n = 2 the subsets are
    the pairs, and a pair is kept when its dual edge, the plan's interval,
    is not empty.  ``kept`` holds the kept pairs' indices.

    Crossing test.  Per middle, side a holds the lines through the middle
    and a kept pair p of block 0, cut by blocks 0..n-2 one at a time (each
    block cuts only the lines the blocks before it left nonempty), and side
    b the lines through the middle and a kept pair q of block n-1, cut by
    block n-1, for the middles with a line on side a.  A candidate pairs a
    nonempty line of side a with one of side b on the same middle; the
    candidate's gamma lies on both.  Its integer determinant ``D = <d_a,
    u_q>``, the determinant of its n edges, is computed exactly, and D = 0
    drops it as singular: the exact test skips it too.  Otherwise, with
    ``P_i = <cof_i, u_q>`` on side a, Cramer's rule puts the gamma at ``s_a
    = (r_q - sum_i rho_i P_i) / D`` on a's line, and likewise at ``s_b`` on
    b's line, from ``<cof_i, u_p>`` and ``<d_b, u_p> = +-D``; at n = 2
    those are P_0 and -D.  The candidate
    survives when s_a lies in a's interval and s_b in b's.  Survivors leave
    as rows of pair indices in ``itertools.product`` order.

    Rounding.  The screen drops a nonsingular candidate only when it shows
    that some point k, one that binds an end of an interval or one of slope
    0, has exact margin below ``-(T + e_k)`` at the candidate's gamma, with
    ``e_k`` the bound on the exact test's float reading of that margin: the
    exact test then reads it below -T and rejects.  The exact test reads
    ``zeta . w / |zeta_k|`` from k's circuit zeta, 2n + 1 products of an
    integer and a lifting value, within ``2 (n + 2) eps scale |zeta|_1 /
    |zeta_k|``.  Up to sign ``zeta / |zeta_k|`` is ``lam_i`` on ``a_i``,
    ``[i = j] - lam_i`` on ``b_i`` and 1 on k, with lam the coordinates of
    ``v' = (k - b_j) / grain`` in the basis of the candidate's edges, b_j
    whichever end of block j's edge the exact test puts second, so ``e_k <=
    4 (n + 2) eps scale (1 + sum_i |lam_i|)``.  By Cramer, lam_i is the
    determinant of the edges with row i replaced by v', over D.

    Crossing test.  Take a point k of block j on a line whose pairs the
    candidate completes with a pair o of the far block.  ``lam_o = <d, v'>
    / D = slope / D``, as d is orthogonal to ``u_j``: at most ``|slope|``.
    Every other lam_i is at most ``|v'| prod_{l != i} |u_l| / |D| <= (|v| +
    |u_j|) pi far``, with ``pi = sum_i prod_{l != i} |u_l|`` over the line's
    pairs, ``far`` the largest ``|u|`` of the far block and ``|D| >= 1``
    (``_Lines.spread`` is ``pi far``).  So ``e_k <= 4 (n + 2) eps scale
    (1 + |slope| + (|v| + |u_j|) pi far)``.  At slope 0, v lies in the span
    of the line's edges, ``v = sum_i (proj_i / |d|^2) u_i``, so ``lam_o =
    0`` and ``sum_i |lam_i| <= 1 + sum_i |proj_i| / |d|^2``: ``e_k <= 4 (n
    + 2) eps scale (2 + sum_i |proj_i| / |d|^2)``.

    The screen's own rounding, to first order, with ``B = 2 scale / grain``
    bounding ``|r|`` and ``|w_k - w_ref| / grain``, and every integer
    (``|d|^2`` and the grain included) converted within a relative half
    ulp.  The pass divides the lifting by the grain once, so r is off by at
    most 3 half ulps of B, ``rho_i`` by 5 of ``B / |d|^2``, and c, a sum of
    n terms, by at most n + 6 half ulps of ``B (1 + sum_i |proj_i| /
    |d|^2)``: ``grain * c`` by ``(n + 6) eps scale (1 + sum_i |proj_i| /
    |d|^2)``.  beta (``c * recip``, ``recip`` rounded) and the sum that
    widens its end add 3 half ulps of ``|beta|``, ``3 eps scale (1 + sum_i
    |proj_i| / |d|^2)`` once multiplied by ``grain * |slope|``.  s_a is off
    by at most n + 8 half ulps of ``B (1 + sum_i |P_i| / |d|^2) / |D|``,
    and since ``|P_i| <= |d| |u_q| prod_{l != i} |u_l|`` (Hadamard) and
    ``|d| >= 1``, ``grain * |slope| * |ds_a| <= 2 (n + 8) eps scale |slope|
    pi far``; s_b alike.  Added up, with ``W = sum_i |proj_i| / |d|^2``, a
    drop at an interval end is sound when its tolerance in margin units is
    at least ``T + eps scale ((5n + 17) + (n + 9) W + (6n + 24) |slope| pi
    far + 4 (n + 2) (|v| + |u_j|) pi far)``, and for a point of slope 0
    ``T + eps scale ((9n + 22) + (5n + 14) W)``.  The crossing test takes

        ``T + 16 (n + 2) eps scale (1 + W)``
        ``  + 16 (n + 2) eps scale (|slope| + |v| + |u_j|) pi far``,

    the first line alone at slope 0, with every coefficient at least 1.6
    times the bound's (64 against 40 for the constant at n = 2 and slope
    0), which covers second-order terms and the tolerance's own rounding.
    At n = 2, ``pi = 1`` and this is the dual edges' tolerance.  Over
    ``grain * |slope|`` it widens an end by ``scale / grain`` times the
    cut's ``slack`` in s, and at slope 0 it bounds c by ``scale / grain``
    times ``level``.  One widening serves every candidate on the line, so a
    line whose widened ends cross drops every candidate on it.

    Block pass.  Take a candidate the exact test accepts or raises
    TieDegenerate on, its pair p = (a, b) of a block and its gamma g.  With
    ``|v'|`` and every ``|u_l|`` at most reach and ``|D| >= 1``, each
    ``|lam_i| <= reach^n``, so every exact margin at g is above ``-delta``,
    ``delta = T + 4 (n + 2) eps scale (1 + n reach^n)``.  So g lies in Q,
    the gammas that level p and leave every point of the block at margin at
    least -delta.  Where the block has an affinely independent n-point
    subset, its differences span at least n - 1 dimensions, so along Q at
    most one direction changes no margin, and Q has a minimal face on which
    n - 2 more points k_j are at margin exactly -delta, with ``u_p`` and
    the ``a - k_j`` independent: ``S = {a, b, k_1, ...}`` is an affinely
    independent n-point subset, and some v of Q levels p and puts each k_j
    at -delta.  Shift v by Delta, with ``<Delta, d> = 0`` and ``<Delta, x -
    s0>`` each S point's lift against s0 at v, at most delta in size: at ``v
    - Delta`` the points of S are level, so it lies on S's line, and a point
    k's lift moves by ``sum_j lam_j(k) <Delta, s_j - s0>``, with ``lam_j(k)
    = proj_j / |d|^2`` its coordinates in the basis of S's line.  Its
    margin against S there is at least ``-delta (2 + W)``.  So S's interval,
    each point widened by that and by the rounding of c and beta, ``(n + 9)
    eps scale (1 + W)`` as above, is not empty, and S keeps p.  The block
    pass takes

        ``(2 + W) (TIE_RTOL + 8 (n + 2) eps (1 + n reach^n)) scale``,

    over ``delta (2 + W)`` by ``4 (n + 2) eps scale (1 + n reach^n) (2 +
    W)``, at least 1.6 times that rounding for n >= 3.  A pair in no
    affinely independent subset, of a block spanning at most n - 2
    dimensions, is kept.

    Underflow, possible only for lifting differences below 2^-1022, adds
    far less than the TIE_RTOL term.  Every comparison that drops is False
    on NaN, and an infinite tolerance drops nothing, so a value beyond the
    float range keeps its candidate.
    """

    def __init__(self, plan: _Plan, lifting: Sequence[float]) -> None:
        self.plan = plan
        self.lift = lift = np.array(lifting, dtype=float)
        self.scale = 1.0 + float(np.maximum.reduce(np.abs(lift)))
        if not plan.floats or plan.n == 1:
            self.kept = np.arange(len(plan.first))
            return
        # Every float step of the screen runs with warnings off: values
        # beyond the float range only keep candidates (see Rounding).
        with np.errstate(all="ignore"):
            self.unit = self.scale / plan.grain
            self.over = lift / plan.grain
            self.r = self.over[plan.second] - self.over[plan.first]
            if plan.n == 2:
                rho = plan.lines.rho(self)
                hi, lo, empty = plan.cut.ends(self, rho)
                self.ends = np.array((*rho, hi, lo, self.r))
                self.kept = (~empty).nonzero()[0]
            else:
                self.kept = self._block_pass()

    def _block_pass(self) -> np.ndarray:
        """The pairs the block pass keeps (n >= 3): each in an affinely
        independent n-point subset of its block whose line has a nonempty
        interval, and each in no such subset; a chunk of subsets at a
        time."""
        plan, n = self.plan, self.plan.n
        witnessed = np.zeros(len(plan.first), dtype=bool)
        covered = np.zeros(len(plan.first), dtype=bool)
        firsts, seconds = map(list, zip(*itertools.combinations(range(n), 2)))
        for i, t in enumerate(plan.sizes):
            start = plan.starts[i]
            cols = start + np.arange(t)[None]
            subsets = itertools.chain.from_iterable(itertools.combinations(range(t), n))
            while True:
                local = np.fromiter(itertools.islice(subsets, SCREEN_CHUNK * n), np.intp)
                if not local.size:
                    break
                local = local.reshape(-1, n)
                a, b = local[:, firsts], local[:, seconds]
                # Every pair of each subset; the first n - 1 join its first
                # point to the others, and its line levels those.
                pairs = a * (2 * t - a - 1) // 2 + (b - a - 1) + plan.pair_starts[i]
                lines = _Lines(plan, pairs[:, : n - 1])
                cut = _Cut(plan, lines, slice(None), cols, 0)
                covered[pairs[lines.det != 0]] = True
                witnessed[pairs[~cut.ends(self, lines.rho(self))[-1]]] = True
        return (witnessed | ~covered).nonzero()[0]

    def _side(self, lines: _Lines, blocks: Sequence[int], end: int) -> tuple[_Side, np.ndarray]:
        """Lines as a side of the crossing test, and those that take part:
        the lines whose interval, cut by ``blocks`` (the pair of each at the
        same place on the line), is not empty, or without floats those of
        independent pairs; ``end`` is the place of the pair whose r the
        crossing test reads.  The blocks cut one at a time, each the lines
        the ones before left nonempty; the ends of an interval are the
        least hi and the greatest lo of the blocks'."""
        plan = self.plan
        index = (lines.det != 0).nonzero()[0]
        if not plan.floats:
            return _Side(lines.rows, lines.frame, None), index
        rho = lines.rho(self)
        hi, lo = np.full(len(lines.rows), np.inf), np.full(len(lines.rows), -np.inf)
        for place, i in zip(range(-len(blocks), 0), blocks):
            cols = plan.starts[i] + np.arange(plan.sizes[i])[None]
            cut = _Cut(plan, lines, index, cols, place)
            top, bottom, empty = cut.ends(self, rho[:, index])
            hi[index] = np.minimum(hi[index], top)
            lo[index] = np.maximum(lo[index], bottom)
            index = index[~(empty | (lo[index] > hi[index]))]
        ends = np.vstack((rho, hi, lo, self.r[lines.rows[:, end]]))
        return _Side(lines.rows, lines.frame, ends), index

    def _middles(self, kept: list[np.ndarray]) -> Iterator[tuple]:
        """The lines of the crossing test, one middle at a time: side a,
        the lines of a that take part, side b and those of b.

        A middle is one kept pair of each of blocks 1..n-2, middles in
        product order; at n = 2 the one middle is empty.  Side a holds the
        lines through a middle and a kept pair of block 0, cut by blocks
        0..n-2, and side b those through it and a kept pair of block n-1,
        cut by block n-1.  At n = 2 both sides are the plan's lines, and
        the kept pairs' take part.  At n >= 3 the lines are built a chunk
        of middles at a time, side b's only for the middles with a line on
        side a.
        """
        plan, n = self.plan, self.plan.n
        if n == 2:
            side = _Side(plan.lines.rows, plan.lines.frame, getattr(self, "ends", None))
            yield side, kept[0], side, kept[1]
            return
        first, middle, last = kept[0], kept[1:-1], kept[-1]
        shape = tuple(len(pairs) for pairs in middle)
        total = math.prod(shape) if len(first) and len(last) else 0
        step = max(1, SCREEN_CHUNK // len(first)) if total else 1
        for start in range(0, total, step):
            idx = np.unravel_index(np.arange(start, min(start + step, total)), shape)
            mids = np.stack([pairs[i] for pairs, i in zip(middle, idx)], axis=1)
            rows = np.empty((len(mids), len(first), n - 1), dtype=np.intp)
            rows[..., 0], rows[..., 1:] = first, mids[:, None]
            a, ia = self._side(_Lines(plan, rows.reshape(-1, n - 1), n - 1), range(n - 1), 0)
            live = np.unique(ia // len(first))
            rows = np.empty((len(live), len(last), n - 1), dtype=np.intp)
            rows[..., :-1], rows[..., -1] = mids[live, None], last
            b, ib = self._side(_Lines(plan, rows.reshape(-1, n - 1), 0), [n - 1], -1)
            # Lines are in middle-major order, so each middle's lines are a run.
            a_runs = np.searchsorted(ia // len(first), live, side="right")
            b_runs = np.searchsorted(ib // len(last), np.arange(len(live)), side="right")
            for ia_m, ib_m in zip(np.split(ia, a_runs[:-1]), np.split(ib, b_runs[:-1])):
                yield a, ia_m, b, ib_m

    def survivors(self) -> np.ndarray:
        """The candidates that pass the crossing test, as rows of pair
        indices (column i block i's pair) in ``itertools.product`` order.
        Per middle, each line of side a meets each line of side b, at most
        about SCREEN_CHUNK candidates tested at a time."""
        plan, n = self.plan, self.plan.n
        if n == 1:
            return self.kept[:, None]
        cuts = self.kept.searchsorted(plan.pair_starts).tolist()
        kept = [self.kept[start:stop] for start, stop in zip(cuts, cuts[1:])]
        found = []
        with np.errstate(all="ignore"):
            for a, ia, b, ib in self._middles(kept):
                q = b.rows[:, -1][ib]
                step = SCREEN_CHUNK // max(len(ib), 1) or 1
                for start in range(0, len(ia), step):
                    lines = ia[start : start + step]
                    i, j = self._crossings(a, lines, b, ib, q).nonzero()
                    rows = np.empty((len(i), n), dtype=np.intp)
                    rows[:, :-1], rows[:, -1] = a.rows.take(lines[i], 0), q[j]
                    found.append(rows)
        if not found:
            return np.empty((0, n), dtype=np.intp)
        rows = np.concatenate(found) if len(found) > 1 else found[0]
        # Middle by middle, rows leave in product order at n = 2 alone.
        return rows if n == 2 else rows[np.lexsort(rows.T[::-1])]

    def _crossings(self, a: _Side, ia, b: _Side, ib, q) -> np.ndarray:
        """Which candidates the crossing test keeps, lines ``ia`` of side a
        (rows) by lines ``ib`` of side b (columns) on one middle: each takes
        its pair p of block 0 from a and q (the pairs ``q``) of block n-1
        from b."""
        units = self.plan.units
        # (P_0, ..., P_{n-2}, D) of each candidate on side a.  Gathers along
        # an axis go through ``take``, which numpy runs faster than fancy
        # indexing of a multi-dimensional array.
        on_a = a.frame.take(ia, 0).transpose(1, 0, 2) @ units.take(q, 0).T
        singular = on_a[-1] == 0
        if not self.plan.floats:
            return ~singular
        on_a = on_a.astype(float)
        *rho_a, hi_a, lo_a, r_p = a.ends.take(ia, 1)[..., None]
        *rho_b, hi_b, lo_b, r_q = b.ends.take(ib, 1)[:, None]
        s_a = r_q - rho_a[0] * on_a[0]
        for i in range(1, len(rho_a)):
            s_a -= rho_a[i] * on_a[i]
        s_a /= on_a[-1]
        if self.plan.n == 2:
            # A line is one pair and cof_0 its edge, so side b's P_0 is side
            # a's and its determinant is -D.
            s_b = (rho_b[0] * on_a[0] - r_p) / on_a[-1]
        else:
            on_b = units.take(a.rows[ia, 0], 0) @ b.frame.take(ib, 0).transpose(1, 2, 0)
            on_b = on_b.astype(float)
            s_b = r_p - rho_b[0] * on_b[0]
            for i in range(1, len(rho_b)):
                s_b -= rho_b[i] * on_b[i]
            s_b /= on_b[-1]
        out = (s_a > hi_a) | (s_a < lo_a) | (s_b > hi_b) | (s_b < lo_b)
        return ~(singular | out)


def _plan(config: CayleyConfig) -> _Plan:
    """The screen plan of a configuration, shared by every lifting of it.

    Plans of at most SCREEN_CHUNK pairs are cached, keyed by the
    configuration's value (its points, so supports with equal block sizes
    but other points get plans of their own); larger plans are built per
    solve.  An n = 2 plan holds 43-55 bytes per pair and point of its
    block, about 16 MB for SCREEN_CHUNK pairs of a 91-point block and 49 kB
    for two 10-point blocks.  Other plans hold their tables,
    points and edges, a few arrays of at most SCREEN_CHUNK rows.  That
    bounds the memory the cache keeps.  This LRU cache is the screen's only
    one.
    """
    sizes = [config.block.count(i) for i in range(config.n)]
    for i, t in enumerate(sizes):
        if t < 2:
            raise EmptySupport(f"support {i} has fewer than 2 points")
    if sum(math.comb(t, 2) for t in sizes) <= SCREEN_CHUNK:
        return _cached_plan(config)
    return _build_plan(config)


def _build_plan(config: CayleyConfig) -> _Plan:
    return _Plan(config)


_cached_plan = functools.lru_cache(maxsize=32)(_build_plan)


def enumerate_mixed_cells(config: CayleyConfig, lifting: Lifting) -> MixedCellSet:
    """All mixed cells of the subdivision induced by ``lifting``.

    The float screen (``_Screen``) only discards; it and the circuit table
    read the configuration's cached plan (``_plan``), so a second
    coefficient vector on a support pays only the lifting's share of the
    screen.  Survivors leave the screen as rows of pair indices
    (``survivors``) and stay arrays: the plan's pair tables give their
    Cayley endpoints, the lower-lifted point of each edge first (a tie keeps
    the lower index first), and ``plan.ints`` their stacked edge matrices.
    One ``_det_adjugate`` of the stack eliminates every survivor at once: a
    zero determinant drops the survivor, and the adjugates give the float
    gammas (the negated normals) and, in one ``_circuit_table`` pass, the
    exact circuit inequalities, one per excluded point.  The table is
    evaluated on the float lifting: a row's value over ``|zeta[witness]|``
    is the witness's exclusion margin.  A survivor is a cell when all its
    margins are positive, and the returned set keeps its rows and their
    values, cells ordered by their edges.  A negative margin rejects it;
    otherwise a margin within ``TIE_RTOL * (1 + max|w|)`` of zero raises
    TieDegenerate for the first such survivor.
    """
    if len(lifting) != config.m:
        raise ValueError("lifting length must equal the Cayley point count")
    plan = _plan(config)
    n = plan.n
    screen = plan.screen(lifting.values)
    lift = screen.lift
    # Each survivor's Cayley edges, ends[s, i] = (a_i, b_i) for block i, the
    # lower-lifted point first (a tie keeps the lower index first), and its
    # right-hand side r_i = w(b_i) - w(a_i), never negative.
    pairs = plan.pairs.take(screen.survivors(), 0)
    lifted = lift[pairs]
    ends = np.where((lifted[..., 1] < lifted[..., 0])[..., None], pairs[..., ::-1], pairs)
    rhs = np.abs(lifted[..., 1] - lifted[..., 0])
    points = plan.ints.take(ends, 0)
    dets, adjs = _det_adjugate(points[:, :, 0] - points[:, :, 1])
    if not dets.all():
        live = dets != 0
        ends, rhs, dets, adjs = ends[live], rhs[live], dets[live], adjs[live]
    # gamma = adj @ r / det, as ``lattice.apply_adjugate`` rounds it: each
    # entry adds its products to a running sum from 0.0 in column order
    # (which turns a leading -0.0 into 0.0) and divides once.
    terms = adjs.astype(float) * rhs[:, None]
    gammas = terms[..., 0] + 0.0
    for j in range(1, n):
        gammas += terms[..., j]
    gammas /= dets.astype(float)[:, None]

    points, coeffs, witness = _circuit_table(plan, ends, dets, adjs)
    row_values = _values(points, coeffs, lift)
    # A row's value over its witness entry |zeta_k| >= 1 is k's margin, so no
    # division here overflows or divides by zero.  A margin within the
    # tolerance of zero is a tie, and one below it a violation: that rejects
    # the candidate outright, while a tie only makes the lifting degenerate
    # when the candidate is otherwise a cell, i.e. the tied point sits
    # exactly on the candidate's face.
    margin = row_values / witness.astype(float)
    tolerance = TIE_RTOL * screen.scale
    tied = np.abs(margin) < tolerance
    kept = ~(margin <= -tolerance).any(axis=1)
    degenerate = np.flatnonzero(kept & tied.any(axis=1))
    if degenerate.size:
        s = degenerate[0]
        point = int(points[s, np.flatnonzero(tied[s])[-1], -1])
        edges = tuple(map(tuple, ends[s].tolist()))
        raise TieDegenerate(f"lifting ties on point {point} against cell {edges}")

    # Cells in the order of their edges.  Block i's local indices are its
    # Cayley indices less ``starts[i]``, so both sort alike.
    order = np.lexsort(ends.reshape(len(ends), 2 * n).T[::-1])
    order = order[kept[order]]
    local = (ends.take(order, 0) - plan.starts[:, None]).tolist()
    normals = (-gammas.take(order, 0)).tolist()
    volumes = np.abs(dets[order]).tolist()
    values = row_values.take(order, 0).ravel()
    values.setflags(False)  # write=False; numpy parses the keyword slowly
    width = 2 * n + 1
    return MixedCellSet(
        cells=tuple(
            MixedCell(tuple(map(tuple, edges)), tuple(normal), volume)
            for edges, normal, volume in zip(local, normals, volumes)
        ),
        inequalities=CircuitTable(
            points.take(order, 0).reshape(-1, width), coeffs.take(order, 0).reshape(-1, width)
        ),
        lifting=lifting,
        values=values,
    )


def _values(points: np.ndarray, coeffs: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``zeta . w`` of each circuit (the last axis of ``points`` and
    ``coeffs``) on the float lifting ``w``, summed from 0.0 one column at a
    time (``CircuitTable.values``)."""
    # Columns of a two-dimensional array add faster than those of more.
    terms = (coeffs.astype(float) * w[points]).reshape(-1, points.shape[-1])
    values = terms[:, 0] + 0.0
    for column in terms.T[1:]:
        values += column
    return values.reshape(points.shape[:-1])


def _circuit_table(
    plan: _Plan, ends: np.ndarray, dets: np.ndarray, adjs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The circuit inequalities of cells given by their Cayley endpoints,
    ``ends[c, i] = (a_i, b_i)`` the edge of block i in cell c, each cell
    with the nonzero determinant ``dets[c]`` and the adjugate ``adjs[c]``
    of its edge matrix (``_det_adjugate``): a ``CircuitTable``'s points and
    coefficients with a leading axis per cell, and each row's witness entry
    negated, ``-coeffs[..., -1]``.

    A cell's rows, one per excluded point, go in block-major order, block
    j's ``t_j - 2`` points (``plan.rest`` holds their blocks).  Each is the
    unique affine dependence of the 2n cell points plus the excluded point,
    reduced to a primitive integer vector and oriented so the excluded
    point's entry is negative.  The Cayley tags and the homogenizing
    coordinate make each block's coefficients sum to zero, so the n x n edge
    matrix D (rows ``a_i - b_i``) is all the caller eliminates: for a point
    k of block j, with ``d = det D`` and ``l = (k - b_j) @ adj D``, the rows
    of D weighted by l sum to ``d * (k - b_j)``, and the dependence is
    ``l_i`` on ``a_i``, ``d * [i = j] - l_i`` on ``b_i`` and ``-d`` on k.
    As ``(a_j - b_j) @ adj D = d e_j``, the entries on the b_i are ``-(k -
    a_j) @ adj D``.  All rows are assembled at once, in the plan's exact
    dtype: int64 under the bound of ``_exact_dtype``, else object arrays of
    Python ints.  On a lifting a row evaluates to ``|zeta[k]|`` times k's
    exclusion margin: weighted by it, the cell points' lifted values are
    their faces' heights, and the gamma terms cancel.
    """
    n, count = plan.n, len(dets)
    cell = ends.reshape(count, 1, 2 * n)
    outside = np.ones((count, plan.m), dtype=bool)
    outside[np.arange(count)[:, None], cell[:, 0]] = False
    point = outside.nonzero()[1].reshape(count, len(plan.rest))
    # ((k - a_j) @ adj D, (k - b_j) @ adj D), that is (l - d e_j, l), with
    # (a_j, b_j) the cell's edge in the block of each row's point k.
    ints = plan.ints
    own = ints.take(ends.take(plan.rest, 1), 0)
    both = (ints.take(point, 0)[:, :, None] - own) @ adjs[:, None]
    # The gcd of the dependence is that of l and d.  Dividing by it, negated
    # where d is negative, makes the dependence primitive and its entry -d
    # on the excluded point negative.  l is a view of ``both``, so the one
    # division reduces it too.
    lam = both[:, :, 1]
    g = np.gcd(lam[..., 0], dets[:, None])
    for j in range(1, n):
        g = np.gcd(g, lam[..., j])
    g *= np.sign(dets)[:, None]
    both //= g[..., None, None]
    d = dets[:, None] // g
    coeffs = np.empty((*point.shape, 2 * n + 1), dtype=ints.dtype)
    coeffs[..., :-1:2] = lam
    coeffs[..., 1::2] = -both[:, :, 0]
    coeffs[..., -1] = -d
    points = np.empty(coeffs.shape, dtype=np.intp)
    points[..., :-1] = cell
    points[..., -1] = point
    return points, coeffs, d


def circuit_inequalities(cell: MixedCell, config: CayleyConfig) -> CircuitTable:
    """The cell's circuit table, one row per Cayley point excluded from it.

    The one-cell entry to the enumeration's exact stage: the cell's local
    edges offset by the plan's ``starts`` give its Cayley endpoints, a stack
    of one edge matrix goes through ``_det_adjugate`` and the determinant
    and adjugate through ``_circuit_table``; see there for the dependence
    and its orientation.  A singular edge matrix raises
    SingularExponentMatrix.
    """
    plan = _plan(config)
    ends = np.array(cell.edges, dtype=np.intp)[None] + plan.starts[:, None]
    points = plan.ints.take(ends, 0)
    dets, adjs = _det_adjugate(points[:, :, 0] - points[:, :, 1])
    if dets[0] == 0:
        raise SingularExponentMatrix("cell points are affinely dependent")
    points, coeffs, _ = _circuit_table(plan, ends, dets, adjs)
    return CircuitTable(points[0], coeffs[0])
