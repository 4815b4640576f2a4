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
Float screens in numpy discard candidates before the exact test, and only
ever discard: their tolerances make each candidate they drop one the exact
test rejects.  Every survivor is decided by the exact test (integer
determinant and circuits, and the signs and ties of the circuits' values on
the lifting), so cells, normals, circuits and TieDegenerate are those of
the exact test run on every candidate.

At n = 2 the mixed cells are the crossings of the two tropical curves, each
dual to the subdivision the lifting induces on its block (Huber and
Sturmfels 1995; Maclagan and Sturmfels 2015), and the screen is built on
those dual edges (``_DualScreen``).  The gammas that level a point pair
form a line, and the pair's dual edge is one interval on it, found per pair
from the integer slopes of the block's other points along the line; an
empty interval means the pair is no upper edge.  A candidate pairs one
point pair of each block: an exactly zero integer determinant drops it as
singular, and otherwise Cramer's rule puts its gamma on each of the two
lines, and it survives when both parameters lie in their intervals, each
widened by a tolerance with a written rounding argument.  That is O(1) per
candidate, and exponents near 10^5 make it keep no more candidates than
small ones do (ROADMAP item 9).

At every other n the screens are a batched float test in two passes.  The
first looks at each block alone: it keeps a point pair of the block only
if some (n+1)-point simplex of the block through the pair has a float gamma
that leaves no point of the block clearly above the simplex's face (an edge
of the lifted upper hull lies in an upper facet, which supplies such a
simplex).  Candidates become the product of the kept pairs.  The second
looks at them a chunk at a time and discards those that are provably
singular or whose float gamma leaves some point clearly above its block's
face.  A configuration whose whole pair product has at most SMALL_PRODUCT
candidates skips the first pass: the second screens the whole product in
one batch.  Each row's determinant and gamma come from ``np.linalg.det``
and ``np.linalg.solve``.

Each screen is split in two.  A plan (``_DualPlan`` at n = 2, else
``_ScreenPlan``) holds all it reads of the configuration alone: the base
points in the exact dtype, the pair tables, and at n = 2 each pair's edge,
line direction and the slopes and projections of its block's points,
elsewhere the screened blocks, grain-unit rows and the rows of the simplex
pass, or of a small product, with each row's determinant, singular and
trusted tests and solve matrix.  A pass (``_DualScreen`` or
``_FloatScreen``) adds one lifting.  Coefficient vectors on one support
are this solver's natural traffic (the certificate lives in the
coefficient space of a fixed support), so plans are cached, keyed by the
configuration's value, its points included; only plans of at most
SCREEN_CHUNK pairs are, which bounds the cache's memory, and larger ones
are built per solve.  That LRU cache is the screens' only one: a plan
built cold builds its own pair tables and simplex rows.  Cells themselves
are not memoized: a cell depends on the lifting.

Survivors leave the screens as one array of rows of pair indices, one column
per block, and stay arrays up to the circuit table: the plan's pair tables
give each edge's Cayley endpoints, one comparison of the lifting puts the
lower-lifted one first, and the plan's exact points and the lifting give the
edge matrices and right-hand sides, each converted to Python numbers once.
Each survivor's n x n edge matrix is eliminated once, by the fraction-free
``det_adjugate``, which gives its determinant, its gamma and its circuits.
The circuits of all survivors of a solve are built in one pass from their
endpoint arrays as one exact table (``CircuitTable``, one row per circuit)
and evaluated on the float lifting once; one ``np.lexsort`` of the
endpoints puts the cells in the order of their edges.  The table's integers
are int64 wherever a Hadamard bound on the base points proves every entry
and every intermediate below 2^53 (``_exact_dtype``), and Python ints in
object arrays elsewhere; one code path serves both.  The table is the only
form of a circuit inequality: the returned ``MixedCellSet`` keeps the
cells' rows, their values and the lifting, which is all the certificate
reads.

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
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EmptySupport, SingularExponentMatrix, TieDegenerate
from .lattice import CayleyConfig, IntMatrix, Lifting, apply_adjugate, det_adjugate

# Unused here: perfbench/tracing.py's LEAVES wraps these names in this module
# until ROADMAP item 1a wraps ``det_adjugate`` instead.
from .lattice import int_det, solve_exact  # noqa: F401

TIE_RTOL = 1e-12

# Candidates per float-screen batch: the screens' arrays have about this
# many rows whatever the candidate count.
SCREEN_CHUNK = 4096
# At n != 2, a configuration whose whole pair product has at most this many
# candidates screens no block: its plan holds the product's rows and their
# factors, and a solve screens them in one batch.  Set by measurement on
# fresh supports.
SMALL_PRODUCT = 512
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
        bit ``sum(c * w[k])`` over the row's nonzero coefficients in column
        order, each integer coefficient rounded to a float as Python does.
        A zero coefficient adds a zero of either sign, which changes no bit:
        a running sum that starts at 0.0 is never -0.0.  ``terms.sum(axis=1)``
        would not do: numpy's pairwise, unrolled reduction sums rows of 9 or
        more columns (n >= 4) in another order.
        """
        w = np.array(lifting.values, dtype=float)
        terms = self.coeffs.astype(float) * w[self.points]
        values = np.zeros(len(terms))
        for column in terms.T:
            values += column
        return values

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


def _simplex_rows(
    sizes: Sequence[int],
    screened: Sequence[int],
    starts: np.ndarray,
    pair_starts: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (n+1)-point simplices of the ``screened`` blocks, a chunk at a time.

    ``starts`` (each block's first point) and ``pair_starts`` are the plan's,
    from ``_pair_tables``.  Yields at most SCREEN_CHUNK rows at a time, each
    with its block (a column).  Rows follow ``combinations(range(t), n + 1)``
    block by block and hold the index of each pair of the simplex among all
    pairs (blocks' pairs stacked as in ``_pair_tables``), pairs in
    combinations order, so the first n pairs join the simplex's smallest
    point to each of its other points.
    """
    k = len(sizes) + 1
    firsts, seconds = map(list, zip(*itertools.combinations(range(k), 2)))
    # Simplices of flat point indices, so that a row's first point gives
    # its block; streamed as plain ints for np.fromiter.
    points = itertools.chain.from_iterable(
        itertools.chain.from_iterable(
            itertools.combinations(range(starts[i], starts[i] + sizes[i]), k)
        )
        for i in screened
    )
    while True:
        flat = np.fromiter(itertools.islice(points, SCREEN_CHUNK * k), np.intp)
        if not flat.size:
            return
        table = flat.reshape(-1, k)
        owner = np.searchsorted(starts, table[:, :1], side="right") - 1
        table -= starts[owner]
        a, b = table[:, firsts], table[:, seconds]
        t = np.asarray(sizes)[owner]
        yield a * (2 * t - a - 1) // 2 + (b - a - 1) + pair_starts[owner], owner


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
    of ``v @ adj D`` is at most ``|v|_1 R^(n-1) <= sqrt(n) H``.  A row puts
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


def _spans_space(points: Sequence[Sequence[int]], n: int) -> bool:
    """Whether the points affinely span R^n, decided exactly.

    The difference rows D (``p_k - p_0``) have rank n exactly when their
    n x n Gram matrix ``D^T D`` is nonsingular, as ``rank D = rank D^T D``;
    its Python-int determinant holds at any coordinate size.
    """
    origin = points[0]
    rows = [[c - o for c, o in zip(p, origin)] for p in points[1:]]
    gram = [[sum(r[i] * r[j] for r in rows) for j in range(n)] for i in range(n)]
    return det_adjugate(gram)[0] != 0


class _Factors(NamedTuple):
    """The coefficient-free half of ``_FloatScreen._witness`` for a batch.

    ``matrix`` holds each row's matrix U (the grain-unit rows of its n
    pairs), as ``np.linalg.solve`` takes it, an identity standing in for
    each untrusted one.  ``singular``, ``trusted`` and ``inverse`` (the
    bound on ``||U^-1||_2``) are per row.
    """

    matrix: np.ndarray
    singular: np.ndarray
    trusted: np.ndarray
    inverse: np.ndarray


class _Plan:
    """What every plan holds of a configuration: the pair tables (each
    pair's Cayley endpoints ``first`` and ``second``, each block's first
    point ``starts`` and first pair ``pair_starts``), each point's block,
    the base points as ``ints`` in the exact dtype (``_exact_dtype``), and
    the grain, the gcd of all differences (taken from each point's
    difference to its block's first point).  The circuit table reads these
    too.  One plan serves every coefficient vector on its support (``_plan``
    caches it), so every array a plan holds is read only.
    """

    def __init__(self, config: CayleyConfig) -> None:
        n = config.n
        self.n, self.m = n, config.m
        base = [config.base_point(k) for k in range(config.m)]
        sizes = self.sizes = tuple(config.block.count(i) for i in range(n))
        self.starts, self.first, self.second, self.pair_starts = _pair_tables(sizes)
        self.block = np.array(config.block, dtype=np.intp)
        largest = self.largest = max(abs(c) for point in base for c in point)
        ints = self.ints = np.array(base, dtype=_exact_dtype(n, largest)).reshape(-1, n)
        to_first = ints - ints[np.repeat(self.starts, sizes)]
        self.grain = math.gcd(*to_first.ravel().tolist())

    def _freeze(self, *arrays: np.ndarray) -> None:
        """Make the plan's arrays, and ``arrays`` beside them, read only."""
        for array in itertools.chain(vars(self).values(), arrays):
            if isinstance(array, np.ndarray):
                array.setflags(write=False)


class _DualPlan(_Plan):
    """What the n = 2 screen reads of a configuration, whatever its lifting.

    At n = 2 the mixed cells of a lifting are the points where the two
    tropical curves cross, each curve dual to the subdivision the lifting
    induces on its block (Huber and Sturmfels 1995).  A pair p = (a, b) of
    a block is an edge of that subdivision when the gammas that level a and
    b, a line, keep a segment below which no other point of the block
    rises: the dual edge.  Everything is in grain units: ``frame`` holds
    each pair's edge ``u = (a - b) / grain`` and the direction ``d = (-u_1,
    u_0)`` of its line in the exact dtype, and per pair and point k of its
    block, ``cols`` holds k's Cayley index and ``proj`` the integer ``<u,
    v>``, with ``v = (k - a) / grain``; ``up`` and ``down`` mark the points
    of positive and negative slope, the integer ``<d, v> = det(u, v)``, and
    ``recip`` holds ``-1 / slope``.  Blocks of fewer points than the largest
    pad their rows with a's own column, a point of slope and projection 0,
    as a itself is.  ``n2`` holds ``|u|^2``.  ``slack`` and ``level`` are
    the per-point factors of the screen's tolerance (``_DualScreen``),
    lifting-free.

    Integers are exact floats wherever the base points fit int64
    (``_exact_dtype``: every entry here is then below 2^51), and floats
    within a relative half ulp of the exact integer otherwise.  Where
    ``8 * largest^2`` reaches 2^1000, exponents near 10^200 among them,
    those floats would leave the float range: such a plan holds no floats
    (``floats`` is False) and its screen drops only exactly singular
    candidates.
    """

    def __init__(self, config: CayleyConfig) -> None:
        super().__init__(config)
        sizes, grain = self.sizes, self.grain
        ints = self.ints
        width = max(sizes)
        owner = self.block[self.first]
        local = np.arange(width)
        inside = local < np.asarray(sizes)[owner][:, None]
        cols = self.starts[owner][:, None] + local
        self.cols = np.where(inside, cols, self.first[:, None])
        units = (ints[self.first] - ints[self.second]) // grain
        # Each pair's edge u and the direction d of its line, so that one
        # product with the edges of the other block gives <u_p, u_q> and
        # det(u_p, u_q) = <d_p, u_q>.
        self.frame = np.stack((units, units[:, ::-1] * np.array([-1, 1])), axis=1)
        diffs = (ints[self.cols] - ints[self.first][:, None, :]) // grain
        slope = (self.frame[:, None, 1] * diffs).sum(axis=2)
        proj = (self.frame[:, None, 0] * diffs).sum(axis=2)
        self.floats = 8 * self.largest**2 < 2**1000
        if self.floats:
            slope = slope.astype(float)
            self.proj = proj.astype(float)
            self.n2 = (units * units).sum(axis=1).astype(float)
            reach = np.sqrt(np.maximum.reduceat(self.n2, self.pair_starts[:-1]))
            far = reach[1 - owner]
            self.up, self.down = slope > 0, slope < 0
            # -1 / slope, which takes beta from c, and 0 at slope 0.
            flat = slope == 0
            self.recip = -1.0 / np.where(flat, -np.inf, slope)
            # The tolerance of ``_DualScreen`` over ``scale / grain``: for a
            # point of nonzero slope, how far it widens the end the point
            # binds, in s; for a point of slope 0 other than a and b (and
            # the padding, a's own column), the bound on its c.
            size = np.abs(slope)
            norm = np.sqrt(self.n2)[:, None]
            head = TIE_RTOL + 64 * _EPS * (1.0 + np.abs(self.proj) / self.n2[:, None])
            length = np.hypot(slope, self.proj) / norm
            lean = 64 * _EPS * (size + length + norm) * far[:, None]
            self.slack = (head + lean) / np.maximum(size, 1.0)
            edge = self.cols == self.first[:, None]
            edge |= self.cols == self.second[:, None]
            self.level = np.where(flat & ~edge, head, np.inf)
        self._freeze()

    def screen(self, lifting: Sequence[float]) -> _DualScreen:
        return _DualScreen(self, lifting)


class _DualScreen:
    """The n = 2 screen of one lifting: one interval per point pair, one
    O(1) test per candidate.

    Notation as in ``_DualPlan``, with ``r = (w_b - w_a) / grain`` for a
    pair p = (a, b), and ``scale = 1 + max |w|``.  The gammas that level a
    and b form the line ``gamma(s) = u r / |u|^2 + s d``.  Along it a point
    k of the block has margin (a's lifted value less k's) ``grain * (slope *
    (beta - s))`` where ``slope != 0``, with ``beta = -c / slope`` and the
    intercept ``c = r proj / |u|^2 + (w_k - w_a) / grain``, and ``-grain *
    c`` at every s where ``slope = 0``.  So p's dual edge is the interval
    ``I_p = [lo, hi]``: hi the least beta of the points of positive slope,
    lo the greatest of those of negative slope.  An empty interval, or a
    point of slope 0 above the line, means p is no upper edge.  a and b are
    points of slope 0 that bound no end, and the test of the points of
    slope 0 leaves them out.

    A candidate takes a pair p of block 0 and q of block 1.  Its integer
    determinant ``D = det(u_p, u_q)`` is computed exactly, and D = 0 drops
    it as singular: the exact test skips it too.  Otherwise, with ``P =
    <u_p, u_q>``, Cramer's rule puts the crossing of the two lines at ``s_p
    = (r_q - r_p P / |u_p|^2) / D`` on p's line and ``s_q = (r_q P /
    |u_q|^2 - r_p) / D`` on q's.  The candidate survives when s_p lies in
    I_p and s_q in I_q, each end widened by the tolerance below.  Survivors
    leave as rows of pair indices in ``itertools.product`` order.

    Rounding.  The screen drops a nonsingular candidate only when it shows
    that the point k that binds an end of an interval (or a point of slope
    0) has exact margin below ``-(T + e_k)``, with ``T = TIE_RTOL * scale``
    and ``e_k`` the bound on the exact test's float reading of that margin:
    the exact test then reads it below -T and rejects.  The exact test
    reads ``zeta . w / |zeta_k|`` from k's circuit zeta, five products of
    an integer and a lifting value, within ``e_k = 8 eps scale |zeta|_1 /
    |zeta_k|``.  Up to sign zeta / |zeta_k| is ``lam_i`` on ``a_i``,
    ``[i = j] - lam_i`` on ``b_i`` and 1 on k, with lam the coordinates of
    ``(k - b_j) / grain`` in the basis of the edges, ``b_j`` whichever end
    of p's edge the exact test puts second.  So lam is ``det(k - b_j,
    u_q) / D`` on p's edge, at most ``(|v| + |u_p|) |u_q| / |D|``, and
    ``slope / D`` on q's, and ``e_k <= 16 eps scale (1 + (|slope| + (|v| +
    |u_p|) |u_q|) / |D|)``.  For a point of slope 0, v is parallel to u_p,
    lam is 0 on q's edge and at most ``|v| / |u_p| + 1 = |proj| / |u_p|^2
    + 1`` on p's: ``e_k <= 16 eps scale (2 + |proj| / |u_p|^2)``.

    The screen's own rounding, to first order, with ``B = 2 scale /
    grain`` bounding ``|r|`` and ``|w_k - w_a| / grain``, and every integer
    (the grain included) converted within a relative half ulp.  The pass
    divides the lifting by the grain once, so r is off by at most 3 half
    ulps of B, ``r / |u|^2`` by 5 of ``B / |u|^2``, and c by at most 8 half
    ulps of ``B (1 + |proj| / |u|^2)``: ``grain * c`` by at most ``8 eps
    scale (1 + |proj| / |u|^2)``.  beta (``c * recip``, ``recip`` rounded)
    and the sum that widens its end add 3 half ulps of ``|beta|``, ``3 eps
    scale (1 + |proj| / |u|^2)`` once multiplied by ``grain * |slope|``.
    s_p is off by at most 10 half ulps of ``B (1 + |P| / |u_p|^2) / |D|``,
    and since ``|P| <= |u_p| |u_q|`` and both norms are at least 1,
    ``grain * |slope| * |ds_p| <= 20 eps scale |slope| |u_q| / |D|``.
    Added up, a drop at an interval end is sound when its tolerance in
    margin units is at least ``T + eps scale (27 + 11 |proj| / |u_p|^2 +
    (36 |slope| + 16 |v| + 16 |u_p|) |u_q| / |D|)``, and for a point of
    slope 0 ``T + eps scale (40 + 24 |proj| / |u_p|^2)``.  Since ``|D| >=
    1``, ``|u_q| / |D|`` is at most ``far``, the largest ``|u|`` of the
    other block.  The screen takes

        ``T + 64 eps scale (1 + |proj| / |u_p|^2)``
        ``  + 64 eps scale (|slope| + |v| + |u_p|) far``,

    the first line alone at slope 0, with every coefficient at least 1.6
    times the bound's, which covers second-order terms and the tolerance's
    own rounding; ``|v| = hypot(slope, proj) / |u_p|``.  Over ``grain *
    |slope|`` this widens an end by ``scale / grain`` times the plan's
    ``slack`` in s, and at slope 0 it bounds c by ``scale / grain`` times
    ``level``.  One widening serves every candidate of the pair, so a pair
    whose widened ends cross drops every candidate it is in: its interval
    is empty, and ``kept`` holds the other pairs' indices.  Underflow,
    possible only for lifting differences below 2^-1022, adds far less
    than the TIE_RTOL term.  Every comparison that drops is False on NaN,
    so a value beyond the float range keeps its candidate.
    """

    def __init__(self, plan: _DualPlan, lifting: Sequence[float]) -> None:
        self.plan = plan
        self.lift = lift = np.array(lifting, dtype=float)
        self.scale = 1.0 + float(np.abs(lift).max())
        if not plan.floats:
            self.kept = np.arange(len(plan.first))
            return
        rows = np.arange(len(plan.first))
        with np.errstate(all="ignore"):
            unit = self.scale / plan.grain
            over = lift / plan.grain
            base = over[plan.first]
            r = over[plan.second] - base
            rho = r / plan.n2
            c = rho[:, None] * plan.proj + (over[plan.cols] - base[:, None])
            beta = c * plan.recip
            highs = np.where(plan.up, beta, np.inf)
            lows = np.where(plan.down, beta, -np.inf)
            top, bottom = highs.argmin(axis=1), lows.argmax(axis=1)
            hi = highs[rows, top] + unit * plan.slack[rows, top]
            lo = lows[rows, bottom] - unit * plan.slack[rows, bottom]
            empty = (lo > hi) | (c > unit * plan.level).any(axis=1)
        # Per pair: r, r / |u|^2 and the widened ends.
        self.ends = np.array((r, rho, hi, lo))
        self.kept = np.flatnonzero(~empty)

    def survivors(self) -> np.ndarray:
        """The candidates from pairs with nonempty intervals that pass the
        crossing test, as rows of pair indices (column i block i's pair) in
        ``itertools.product`` order, at most SCREEN_CHUNK candidates tested
        at a time."""
        split = np.searchsorted(self.kept, self.plan.pair_starts[1])
        ps, qs = self.kept[:split], self.kept[split:]
        step = max(1, SCREEN_CHUNK // max(len(qs), 1))
        keep = np.empty((len(ps), len(qs)), dtype=bool)
        for start in range(0, len(ps), step):
            keep[start : start + step] = self._crossings(ps[start : start + step], qs)
        i, j = np.nonzero(keep)
        rows = np.empty((len(i), 2), dtype=np.intp)
        rows[:, 0], rows[:, 1] = ps[i], qs[j]
        return rows

    def _crossings(self, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Which candidates of pairs ``ps`` by ``qs`` (rows by columns) the
        crossing test keeps."""
        frame = self.plan.frame
        products = frame[ps] @ frame[qs, 0].T
        dot, det = products[:, 0], products[:, 1]
        singular = det == 0
        if not self.plan.floats:
            return ~singular
        r_p, rho_p, hi_p, lo_p = self.ends[:, ps, None]
        r_q, rho_q, hi_q, lo_q = self.ends[:, None, qs]
        with np.errstate(all="ignore"):
            det, dot = det.astype(float), dot.astype(float)
            s_p = (r_q - rho_p * dot) / det
            s_q = (rho_q * dot - r_p) / det
            out = (s_p > hi_p) | (s_p < lo_p) | (s_q > hi_q) | (s_q < lo_q)
        return ~(singular | out)


class _ScreenPlan(_Plan):
    """What the float screens of n != 2 read of a configuration, whatever
    its lifting.

    Beside ``_Plan``'s tables it holds the blocks the simplex pass screens
    (``screened``), and each pair once in grain units: ``unit``, the row's
    2-norm ``norm`` and their largest, ``reach``.  Blocks of at most n + 1
    points, blocks that do not affinely span R^n, and blocks whose
    simplices outnumber the candidates they could cut keep every pair, and
    so does every block of a configuration whose pair product has at most
    SMALL_PRODUCT candidates.  Such a plan holds that product instead
    (``product``: its rows of pair indices in ``itertools.product`` order
    and their ``_Factors``), and makes no ``_spans_space`` call and no
    simplex row.  The simplex pass's rows come with their ``_Factors``: the
    plan holds them when they fit in one chunk (an empty list when no block
    is screened) and streams them per solve, a chunk at a time, when they
    do not.  A plan builds all of this itself, pair tables and simplex rows
    included: the one cache is ``_plan``'s, of whole plans.
    """

    def __init__(self, config: CayleyConfig) -> None:
        super().__init__(config)
        n, sizes, ints = self.n, self.sizes, self.ints
        # Screening a block costs one float test per (n+1)-point simplex and
        # saves at most the product screen's candidates, so blocks are
        # screened, fewest points first, only while their simplices add up to
        # no more than that product.  A block of at most n + 1 points keeps
        # every pair: it spans less than R^n, or it is one simplex, all of
        # whose pairs are edges.  A product of at most SMALL_PRODUCT
        # candidates screens no block: one batch over all of them costs a
        # solve less than a simplex pass and a second batch.
        product = budget = math.prod(math.comb(t, 2) for t in sizes)
        screened = []
        if product > SMALL_PRODUCT:
            for i in sorted(range(n), key=sizes.__getitem__):
                cost = math.comb(sizes[i], n + 1)
                if cost > budget:
                    break
                start = self.starts[i]
                block = ints[start : start + sizes[i]].tolist()
                if sizes[i] > n + 1 and _spans_space(block, n):
                    screened.append(i)
                    budget -= cost
        self.screened = tuple(sorted(screened))
        # Per pair one row U in grain units: the exact integer difference
        # over the grain, rounded once.  A lifting's right-hand sides over
        # the grain then make ``U gamma = rhs`` hold the equalities' gamma.
        self.unit = ((ints[self.first] - ints[self.second]) // self.grain).astype(float)
        self.coords = ints.astype(float)
        self.max_coord = float(np.abs(self.coords).max())
        # A square beyond the float range (exponents near 10**200) makes a
        # norm inf.  That only makes the screens keep more rows: an inf
        # Hadamard bound, reach or tau proves no row singular, trusted or
        # infeasible, and every comparison that drops a row is False on NaN.
        with np.errstate(over="ignore"):
            self.norm = np.sqrt(np.sum(self.unit * self.unit, axis=1))
        self.reach = float(self.norm.max())
        # The simplex pass has ``product - budget`` rows.
        self._simplices = None
        if product - budget <= SCREEN_CHUNK:
            self._simplices = list(self._simplex_batches()) if screened else []
        # A small product's candidates, every pair kept, in product order.
        self.product = None
        if product <= SMALL_PRODUCT:
            shape = tuple(math.comb(t, 2) for t in sizes)
            rows = np.stack(np.unravel_index(np.arange(product), shape), axis=1)
            rows += self.pair_starts[:-1]
            self.product = rows, self.factors(rows)
        batches = [(rows, blk, *factors) for rows, blk, factors in self._simplices or ()]
        batches += [(self.product[0], *self.product[1])] if self.product else []
        self._freeze(*itertools.chain(*batches))

    def screen(self, lifting: Sequence[float]) -> _FloatScreen:
        return _FloatScreen(self, lifting)

    def simplices(self) -> Iterable[tuple[np.ndarray, np.ndarray, _Factors]]:
        """The simplex pass's rows and block column (``_simplex_rows``), a
        chunk at a time, each with the factors of its first n pairs."""
        if self._simplices is None:
            return self._simplex_batches()
        return self._simplices

    def _simplex_batches(self) -> Iterator[tuple[np.ndarray, np.ndarray, _Factors]]:
        chunks = _simplex_rows(self.sizes, self.screened, self.starts, self.pair_starts)
        for rows, blk in chunks:
            yield rows, blk, self.factors(rows[:, : self.n])

    def factors(self, pairs: np.ndarray) -> _Factors:
        """The coefficient-free half of ``_FloatScreen._witness`` for rows of
        pair indices: each row's determinant, singular and trusted tests, and
        the matrix its gamma is solved from."""
        n = self.n
        with np.errstate(all="ignore"):
            # The rows of U are integers, so these tests hold at any scale.
            unit = self.unit[pairs]
            row_norm = self.norm[pairs]
            hadamard = np.prod(row_norm, axis=1)
            det = np.abs(np.linalg.det(unit))
            growth = n * 2.0**n
            # Singular, with H the Hadamard bound, when H * n * 2^n <= 2^33
            # and |det| < 0.5: the integer determinant is then 0.  LU with
            # partial pivoting gives the determinant of an integer matrix
            # within about n * 2^n * eps * H, below 2^-19.
            singular = (det < 0.5) & (hadamard * growth <= 2.0**33)
            # Margins are trusted only for well-conditioned matrices.  Every
            # cofactor of an integer matrix is at most H / (smallest row
            # norm), so cond_2 <= n^1.5 * H * (largest row norm) / (|det| *
            # smallest row norm); asking cond_2 * n * 2^n * eps <= 1e-9 keeps
            # LAPACK's gamma within 1e-9 * |gamma| of the exact-path gamma.
            # Rows of U are nonzero integer rows, so the smallest norm is at
            # least 1.
            min_norm = np.min(row_norm, axis=1)
            spread = np.max(row_norm, axis=1) / min_norm
            cond_det = n**1.5 * hadamard * spread
            trusted = cond_det * (growth * _EPS) <= 1e-9 * det
            # Untrusted matrices may be singular, which would make the
            # batched solve raise; an identity stands in and their margins
            # go unused.
            unit[~trusted] = np.eye(n)
            # ||U^-1||_2 <= n H / (|det| * smallest row norm), by the
            # cofactor bound above.
            inverse = n * hadamard / (det * min_norm)
        return _Factors(unit, singular, trusted, inverse)


def _plan(config: CayleyConfig) -> _Plan:
    """The screen plan of a configuration, shared by every lifting of it.

    Plans of at most SCREEN_CHUNK pairs are cached, keyed by the
    configuration's value (its points, so supports with equal block sizes
    but other points get plans of their own); larger plans are built per
    solve.  An n = 2 plan holds 50 bytes per pair and point of its block,
    at most about 19 MB, for SCREEN_CHUNK pairs of a 91-point block, and
    under 60 kB for two 10-point blocks.  Other plans keep their simplex rows
    only when they fit in one chunk, and their product rows only up to
    SMALL_PRODUCT, so they hold at most SCREEN_CHUNK pairs and simplices
    and SMALL_PRODUCT product rows.  That bounds the memory the cache
    keeps.  This LRU cache is the screens' only one: a cold plan builds its
    own pair tables and simplex rows.
    """
    sizes = [config.block.count(i) for i in range(config.n)]
    for i, t in enumerate(sizes):
        if t < 2:
            raise EmptySupport(f"support {i} has fewer than 2 points")
    if sum(math.comb(t, 2) for t in sizes) <= SCREEN_CHUNK:
        return _cached_plan(config)
    return _build_plan(config)


def _build_plan(config: CayleyConfig) -> _Plan:
    return (_DualPlan if config.n == 2 else _ScreenPlan)(config)


_cached_plan = functools.lru_cache(maxsize=32)(_build_plan)


class _FloatScreen:
    """Batched float tests of one lifting, at n != 2, that discard what the
    exact test would reject.

    Two passes share one test (``_witness``), which takes the coefficient-
    free half of each row from ``plan`` (``_ScreenPlan.factors``).  The
    first runs over the plan's simplices of the ``screened`` blocks and
    keeps a block's point pair only if some simplex through it witnesses
    it; other blocks keep every pair.  The second runs over the product of
    the kept pairs, one pair per block, in ``itertools.product`` order: in
    one batch from the plan's ``product`` when it holds one, so such a
    solve makes one ``_witness`` call and builds no factors, else a chunk
    at a time.
    ``kept`` holds the indices of the kept pairs, blocks in order, and
    ``total`` the size of their product; a screen on a plan that holds its
    product has neither.  Each pair's right-hand side is held once, in grain
    units (``rhs``), and every bound reads the plan's ``reach``.
    """

    def __init__(self, plan: _ScreenPlan, lifting: Sequence[float]) -> None:
        self.plan = plan
        n = plan.n
        self.lift = np.array(lifting, dtype=float)
        self.rhs = (self.lift[plan.second] - self.lift[plan.first]) / plan.grain
        self.scale = 1.0 + float(np.abs(self.lift).max())
        if plan.product:
            return

        # Simplex pass.  Take a candidate the exact test accepts or raises
        # TieDegenerate on, and its pair p, q of a block that spans R^n.  Its
        # exact gamma levels p and q and leaves every other point of the
        # block at most e = ``_tie_slack`` above (lowering those points by at
        # most e makes p, q an upper edge).  The gammas that level p, q with
        # all lowered points on or below form a polyhedron without lines, as
        # the block spans R^n, so it has a vertex: there n independent
        # constraints hold with equality, p - q and n - 1 rows k_j - p.  The
        # simplex S = {p, q, k_1, ..., k_{n-1}} is affinely independent, so
        # never flagged singular, and its gamma for the lowered lifting is
        # that vertex.  Undoing the lowering moves S's right-hand sides by at
        # most e / grain, hence its gamma by at most ||U_S^-1||_2 * sqrt(n) *
        # e / grain.  A margin is a lift difference plus gamma times grain
        # times a row of norm at most reach, so it moves by at most e * (1 +
        # sqrt(n) * reach * ||U_S^-1||_2), the slack ``_witness`` adds to
        # tau.  So S is untrusted, or its float margins are within that
        # widened tau, and either way S keeps p, q.
        kept = np.ones(len(plan.first), dtype=bool)
        if plan.screened:
            slack = self._tie_slack()
            for i in plan.screened:
                kept[plan.pair_starts[i] : plan.pair_starts[i + 1]] = False
            for rows, blk, factors in plan.simplices():
                pairs = rows[:, :n]
                kept[rows[self._witness(pairs, rows[:, :1], blk, slack, factors)]] = True
        self.kept = np.flatnonzero(kept)
        self.cuts = np.searchsorted(self.kept, plan.pair_starts)
        self.shape = tuple(np.diff(self.cuts).tolist())
        self.total = math.prod(self.shape)

    def _tie_slack(self) -> float:
        """Bound on how far above its face the exact test lets a point sit.

        The exact test rejects a candidate only when some excluded point k
        has ``float(zeta . w) / |zeta[k]| <= -TIE_RTOL * scale``, zeta its
        circuit; exactly, that quotient is k's margin.  The sum has 2n + 1
        products of an integer and a lifting value below ``scale``, so with
        the division the quotient is off by at most ``2 (n + 2) eps scale
        |zeta|_1 / |zeta[k]|``.  Up to sign, zeta over ``|zeta[k]|`` is
        ``lam_i`` on ``a_i``, ``[i = j] - lam_i`` on ``b_i`` and 1 on k, with
        ``lam_i`` (Cramer) the determinant of the edge rows in grain units, U,
        with row i replaced by ``(k - b_j) / grain``, at most ``reach^n``,
        over ``det U``, a nonzero integer, so at least 1 in size.  So the
        ratio is at most ``2 + 2 n reach^n``, and a candidate the test accepts
        or raises TieDegenerate on has every exact margin above minus the
        returned bound.
        """
        n = self.plan.n
        ratio = 2.0 + 2.0 * n * self.plan.reach**n
        return self.scale * (TIE_RTOL + 2 * (n + 2) * _EPS * ratio)

    def survivors(self) -> np.ndarray:
        """The product screen's survivors as one array of rows of pair
        indices, column i block i's pair, in ``itertools.product`` order."""
        plan = self.plan
        blocks = np.arange(plan.n)[None, :]
        batches = [plan.product] if plan.product else self._product_chunks()
        kept = [rows[self._witness(rows, rows, blocks, 0.0, f)] for rows, f in batches]
        return np.concatenate([np.empty((0, plan.n), np.intp), *kept])

    def _product_chunks(self) -> Iterator[tuple[np.ndarray, _Factors]]:
        """The product of the kept pairs a chunk at a time, as rows of pair
        indices with their factors."""
        offsets = self.cuts[:-1]
        for start in range(0, self.total, SCREEN_CHUNK):
            flat = np.arange(start, min(start + SCREEN_CHUNK, self.total))
            idx = np.stack(np.unravel_index(flat, self.shape), axis=1)
            pairs = self.kept[idx + offsets]
            yield pairs, self.plan.factors(pairs)

    def _witness(
        self,
        pairs: np.ndarray,
        faces: np.ndarray,
        blocks: np.ndarray,
        slack: float,
        factors: _Factors,
    ) -> np.ndarray:
        """Rows of pair indices the float test cannot rule out.

        Row r takes one gamma from the equality constraints of its n pairs
        and asks, for each column j of ``faces`` and ``blocks``, whether a
        point of block ``blocks[r, j]`` lies above the face through the first
        point of pair ``faces[r, j]`` by more than tau.  A row is ruled out
        when its matrix is provably singular, or when it is trusted and some
        such point lies above.  ``slack`` widens tau for the simplex pass.
        ``factors`` is the rows' coefficient-free half (``_ScreenPlan.
        factors``), which holds the singular and trusted tests; this half
        adds the right-hand sides, gamma and the margins.

        Each row's determinant and gamma come from ``np.linalg.det`` and
        ``np.linalg.solve``, whose rounding the bounds in ``_ScreenPlan.
        factors`` and below cover.
        """
        # Every comparison that drops a row is False on NaN, so values that
        # overflow the float range leave the row to the exact test.
        plan = self.plan
        n = plan.n
        count = len(pairs)
        with np.errstate(all="ignore"):
            rhs = self.rhs[pairs]
            rhs[~factors.trusted] = 0.0
            gamma = np.linalg.solve(factors.matrix, rhs[:, :, None])[:, :, 0]
            # A margin is a difference of two lifted values, each at most
            # scale * (1 + |gamma|_1 * max|coord|) in size.  Their rounding,
            # the 1e-9 relative error of gamma spread over 2n * max|coord|
            # and the tie tolerance 1e-12 * scale fit well inside tau's first
            # term.  The exact test's own rounding is at most 2 (n + 2) eps
            # scale (2 + 2 sum_i |lam_i|) (``_tie_slack``), and by Cramer and
            # Hadamard |lam_i| <= reach * H / (|det| * norm of row i).  So the
            # second term covers it, and a float margin below -tau is one the
            # exact test reads below the tie tolerance: it rejects, no tie.
            inverse = factors.inverse
            gamma_l1 = np.sum(np.abs(gamma), axis=1)
            tau = 1e-6 * self.scale * (1.0 + gamma_l1 * (1.0 + plan.max_coord))
            tau += 4 * (n + 2) * _EPS * self.scale * (1.0 + plan.reach * inverse)
            if slack:
                tau += slack * (1.0 + math.sqrt(n) * plan.reach * inverse)
            # The face points sit within rounding of the face, far inside
            # tau, so the highest lifted value of each block decides.
            lifted = self.lift + gamma @ plan.coords.T
            top = np.maximum.reduceat(lifted, plan.starts, axis=1)
            rows = np.arange(count)[:, None]
            excess = top[rows, blocks] - lifted[rows, plan.first[faces]]
            infeasible = np.any(excess > tau[:, None], axis=1)
        return ~(factors.singular | (factors.trusted & infeasible))


def enumerate_mixed_cells(config: CayleyConfig, lifting: Lifting) -> MixedCellSet:
    """All mixed cells of the subdivision induced by ``lifting``.

    The float screen (``_DualScreen`` at n = 2, ``_FloatScreen`` elsewhere)
    only discards; it and the circuit table read the configuration's cached
    plan (``_plan``), so a second coefficient vector on a support pays only
    the lifting's share of the screen.  Survivors leave the screen as rows
    of pair indices (``survivors``) and stay arrays: the plan's
    pair tables give their Cayley endpoints, the lower-lifted point of each
    edge first (a tie keeps the lower index first), and ``plan.ints`` and
    the lifting their edge matrices and right-hand sides, each converted to
    Python numbers once.  Each survivor's n x n edge matrix is eliminated
    once, by ``det_adjugate``: a zero determinant skips the survivor, and
    the adjugate gives its float gamma (the negated normal, by
    ``lattice.apply_adjugate``) and, in one ``_circuit_table`` pass over
    every survivor's endpoints, its exact circuit inequalities, one per
    excluded point.  The table is evaluated on the float lifting: a row's
    value over ``|zeta[witness]|`` is the witness's exclusion margin.  A
    survivor is a cell when all its margins are positive, and the returned
    set keeps its rows and their values, cells ordered by their edges.  A
    negative margin rejects it; otherwise a margin within ``TIE_RTOL * (1 +
    max|w|)`` of zero raises TieDegenerate for the first such survivor.
    """
    if len(lifting) != config.m:
        raise ValueError("lifting length must equal the Cayley point count")
    plan = _plan(config)
    n = plan.n
    screen = plan.screen(lifting.values)
    rows = screen.survivors()
    # Each survivor's Cayley edges, ends[s, i] = (a_i, b_i) for block i, the
    # lower-lifted point first; a tie keeps the lower index first.
    ends = np.empty((len(rows), n, 2), dtype=np.intp)
    ends[..., 0], ends[..., 1] = plan.first[rows], plan.second[rows]
    swap = screen.lift[ends[..., 1]] < screen.lift[ends[..., 0]]
    ends[swap] = ends[swap, ::-1]
    matrices = (plan.ints[ends[..., 0]] - plan.ints[ends[..., 1]]).tolist()
    rhs = (screen.lift[ends[..., 1]] - screen.lift[ends[..., 0]]).tolist()
    local = (ends - plan.starts[:, None]).tolist()
    # The survivors with a nonsingular edge matrix, with its determinant
    # and adjugate, the one elimination the circuit table reads too.
    nonsingular, dets, adjs, cells = [], [], [], []
    for s, (matrix, r, edges) in enumerate(zip(matrices, rhs, local)):
        det, adj = det_adjugate(matrix)
        if det == 0:
            continue
        gamma = apply_adjugate(det, adj, r)
        nonsingular.append(s)
        dets.append(det)
        adjs.append(adj)
        normal = tuple(-g for g in gamma)
        cells.append(MixedCell(tuple(map(tuple, edges)), normal, abs(det)))
    ends = ends[nonsingular]

    table = _circuit_table(plan, ends, dets, adjs)
    row_values = table.values(lifting)
    with np.errstate(all="ignore"):
        margin = row_values / -table.coeffs[:, -1].astype(float)
        margin[np.abs(margin) < TIE_RTOL * screen.scale] = 0.0
    per_cell = plan.m - 2 * n
    margin = margin.reshape(len(cells), per_cell)
    # A violated margin rejects the candidate outright; a tie only makes the
    # lifting degenerate when the candidate is otherwise a cell, i.e. the
    # tied point sits exactly on the candidate's face.
    kept = ~np.any(margin < 0, axis=1)
    tied = margin == 0
    degenerate = np.flatnonzero(kept & np.any(tied, axis=1))
    if degenerate.size:
        s = degenerate[0]
        point = int(table.points[s * per_cell + np.flatnonzero(tied[s])[-1], -1])
        edges = tuple(map(tuple, ends[s].tolist()))
        raise TieDegenerate(f"lifting ties on point {point} against cell {edges}")

    # Cells in the order of their edges.  Block i's local indices are its
    # Cayley indices less ``starts[i]``, so both sort alike.
    order = np.flatnonzero(kept)
    order = order[np.lexsort(ends[order].reshape(len(order), 2 * n).T[::-1])]
    rows = np.add.outer(order * per_cell, np.arange(per_cell)).ravel()
    kept_values = row_values[rows]
    kept_values.flags.writeable = False
    return MixedCellSet(
        cells=tuple(cells[s] for s in order),
        inequalities=CircuitTable(table.points[rows], table.coeffs[rows]),
        lifting=lifting,
        values=kept_values,
    )


def _circuit_table(
    plan: _ScreenPlan,
    ends: np.ndarray,
    dets: Sequence[int],
    adjs: Sequence[IntMatrix],
) -> CircuitTable:
    """The circuit inequalities of cells given by their Cayley endpoints,
    ``ends[c, i] = (a_i, b_i)`` the edge of block i in cell c, each cell
    with the nonzero determinant and the adjugate of its edge matrix.

    Rows go cell by cell in the arrays' order and, within a cell, one per
    excluded point in block-major order.  Each is the unique affine
    dependence of the 2n cell points plus the excluded point, reduced to a
    primitive integer vector and oriented so the excluded point's entry is
    negative.  The Cayley tags and the homogenizing coordinate make each
    block's coefficients sum to zero, so the n x n edge matrix D (rows
    ``a_i - b_i``) is all the caller eliminates: for a point k of block j,
    with ``d = det D`` and ``l = (k - b_j) @ adj D``, the rows of D weighted
    by l sum to ``d * (k - b_j)``, and the dependence is ``l_i`` on ``a_i``,
    ``d * [i = j] - l_i`` on ``b_i`` and ``-d`` on k.  All rows are
    assembled at once, in the plan's exact dtype: int64 under the bound of
    ``_exact_dtype``, else object arrays of Python ints.  On a lifting a row
    evaluates to ``|zeta[k]|`` times k's exclusion margin: weighted by it,
    the cell points' lifted values are their faces' heights, and the gamma
    terms cancel.
    """
    n, count = plan.n, len(dets)
    width = 2 * n + 1
    exact = plan.ints.dtype
    # One row per (cell, excluded point), cells in order, points ascending.
    cell = ends.reshape(count, 2 * n)
    outside = np.ones((count, plan.m), dtype=bool)
    outside[np.arange(count)[:, None], cell] = False
    owner, point = np.nonzero(outside)
    b_col = 2 * plan.block[point] + 1
    diff = plan.ints[point] - plan.ints[cell[owner, b_col]]
    adj = np.array(adjs, dtype=exact).reshape(count, n, n)
    lam = (diff[:, None, :] @ adj[owner])[:, 0, :]
    d = np.array(dets, dtype=exact)[owner]
    # The gcd of the dependence is that of l and d.  Dividing by it, negated
    # where d is negative, makes the dependence primitive and its entry -d
    # on the excluded point negative.
    g = np.gcd(np.gcd.reduce(lam, axis=1), d)
    g[d < 0] *= -1
    lam //= g[:, None]
    d //= g
    rows = len(point)
    dep = np.empty((rows, width), dtype=exact)
    dep[:, :-1:2] = lam
    dep[:, 1::2] = -lam
    dep[np.arange(rows), b_col] += d
    dep[:, -1] = -d
    points = np.empty((rows, width), dtype=np.intp)
    points[:, :-1] = cell[owner]
    points[:, -1] = point
    return CircuitTable(points, dep)


def circuit_inequalities(cell: MixedCell, config: CayleyConfig) -> CircuitTable:
    """The cell's circuit table, one row per Cayley point excluded from it.

    The one-cell entry to ``_circuit_table``: the cell's local edges offset
    by the plan's ``starts`` give its Cayley endpoints, and one
    ``det_adjugate`` of its edge matrix the determinant and adjugate; see
    there for the dependence and its orientation.  A singular edge matrix
    raises SingularExponentMatrix.
    """
    plan = _plan(config)
    ends = np.array(cell.edges, dtype=np.intp) + plan.starts[:, None]
    det, adj = det_adjugate((plan.ints[ends[:, 0]] - plan.ints[ends[:, 1]]).tolist())
    if det == 0:
        raise SingularExponentMatrix("cell points are affinely dependent")
    return _circuit_table(plan, ends[None], [det], [adj])
