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

Candidates are the per-block edge tuples in ``itertools.product`` order.  Two
batched float screens in numpy discard candidates before the exact test.  The
first looks at each block alone: it keeps a point pair of the block only if
some (n+1)-point simplex of the block through the pair has a float gamma that
leaves no point of the block clearly above the simplex's face (an edge of the
lifted upper hull lies in an upper facet, which supplies such a simplex).
Candidates become the product of the kept pairs.  The second looks at them a
chunk at a time and discards those that are provably singular or whose float
gamma leaves some point clearly above its block's face.  Both screens take a
row's float determinant and gamma from the closed-form 2 x 2 adjugate at
n = 2 (exact products wherever the singular test applies, and no LAPACK
wrapper to pay per batch), and from ``np.linalg.det`` and ``np.linalg.solve``
at every other n.  The screens only ever discard: every survivor is decided
by the exact test (integer determinant and circuits, and the signs and ties
of the circuits' values on the lifting), and the screens' tolerances make
each candidate they drop one the exact test rejects.  Cells, normals, circuits and
TieDegenerate are therefore those of the exact test run on every candidate.

The screens are split in two.  A plan (``_ScreenPlan``) holds all they read
of the configuration alone: blocks and base points, the screened blocks, the
pair tables and grain-unit rows, and the simplex pass's rows with each row's
determinant, singular and trusted tests and solve matrix.  A pass
(``_FloatScreen``) adds one lifting: right-hand sides, gammas and margins.
Coefficient vectors on one support are this solver's natural traffic (the
certificate lives in the coefficient space of a fixed support), so plans are
cached, keyed by the configuration's value, its points included; only plans
of at most SCREEN_CHUNK pairs are, which bounds the cache's memory, and
larger ones are built per solve.  Cells themselves are not memoized: a cell
depends on the lifting, and on the dense (3, 3) benchmark corpus only 2 of
a pass's 32 cells repeat an earlier system's edges.

Each survivor's n x n edge matrix is eliminated once, by the fraction-free
``det_adjugate``, which gives its determinant, its gamma and its circuits.
The circuits of all survivors of a solve are built in one pass as one exact
table (``CircuitTable``: object arrays of Python ints, one row per circuit)
and evaluated on the float lifting once.  The table is the only form of a
circuit inequality: the returned ``MixedCellSet`` keeps the cells' rows,
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
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import EmptySupport, SingularExponentMatrix, TieDegenerate
from .lattice import CayleyConfig, IntMatrix, Lifting, det_adjugate, kernel_basis

# Unused here: perfbench/tracing.py's LEAVES wraps these names in this module
# until ROADMAP item 1a wraps ``det_adjugate`` instead.
from .lattice import int_det, solve_exact  # noqa: F401

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
    are Python ints in an object array, so every entry is exact.  Each row
    is primitive and oriented with a negative witness coefficient;
    equivalently, every lifting that induces the cell gives each of the
    cell's rows a positive value (``values``).  Tables compare by identity.
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


def _order_edge(p: int, q: int, lifted: Sequence[float]) -> tuple[int, int]:
    # Lower-lifted point first; deterministic tiebreak by index.
    if (lifted[p], p) <= (lifted[q], q):
        return p, q
    return q, p


def _pair_tables(sizes: tuple[int, ...]) -> tuple:
    """Index tables for blocks of the given sizes, stacked block by block.

    Returns the flat index of each block's first point; the flat indices of
    both points of every pair, each block's pairs in combinations order; and
    each block's first pair index and the total.
    """
    starts = list(itertools.accumulate(sizes, initial=0))
    locals_ = [np.triu_indices(t, 1) for t in sizes]
    pair_starts = list(itertools.accumulate((len(p) for p, _ in locals_), initial=0))
    first = np.concatenate([p + s for (p, _), s in zip(locals_, starts)])
    second = np.concatenate([q + s for (_, q), s in zip(locals_, starts)])
    return np.array(starts[:-1]), first, second, pair_starts


# Small shapes recur across solves, so their tables are cached and shared:
# callers only read them.  Only shapes with at most SCREEN_CHUNK pairs, or
# simplices, are cached, which bounds the memory the caches keep.
_cached_pair_tables = functools.lru_cache(maxsize=32)(_pair_tables)


def _simplex_rows(
    sizes: Sequence[int], screened: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (n+1)-point simplices of the ``screened`` blocks, a chunk at a time.

    Yields at most SCREEN_CHUNK rows at a time, each with its block (a
    column).  Rows follow ``combinations(range(t), n + 1)`` block by block
    and hold the index of each pair of the simplex among all pairs (blocks'
    pairs stacked as in ``_pair_tables``), pairs in combinations order, so
    the first n pairs join the simplex's smallest point to each of its other
    points.
    """
    k = len(sizes) + 1
    pairs = (math.comb(t, 2) for t in sizes)
    pair_starts = np.array(list(itertools.accumulate(pairs, initial=0)))
    firsts, seconds = map(list, zip(*itertools.combinations(range(k), 2)))
    # Simplices of flat point indices, so that a row's first point gives
    # its block; streamed as plain ints for np.fromiter.
    starts = np.array(list(itertools.accumulate(sizes, initial=0)))
    points = itertools.chain.from_iterable(
        itertools.chain.from_iterable(
            itertools.combinations(range(starts[i], starts[i + 1]), k)
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
        t = starts[owner + 1] - starts[owner]
        yield a * (2 * t - a - 1) // 2 + (b - a - 1) + pair_starts[owner], owner


@functools.lru_cache(maxsize=32)
def _cached_simplex_rows(
    sizes: tuple[int, ...], screened: tuple[int, ...]
) -> list[tuple[np.ndarray, np.ndarray]]:
    return list(_simplex_rows(sizes, screened))


def _spans_space(points: Sequence[Sequence[int]], n: int) -> bool:
    """Whether the points affinely span R^n, decided exactly."""
    origin = points[0]
    rows = [[c - o for c, o in zip(p, origin)] for p in points[1:]]
    return kernel_basis(rows)[1] == n


class _Factors(NamedTuple):
    """The coefficient-free half of ``_FloatScreen._witness`` for a batch.

    Each row's matrix U (the grain-unit rows of its n pairs) enters as
    ``matrix``.  At n = 2 that is four arrays, the entries u00, u01, u10
    and u11 of the closed form, with ``signed`` its determinant; at other n
    it is the matrices ``np.linalg.solve`` takes, an identity standing in
    for each untrusted one.  ``singular``, ``trusted`` and ``inverse`` (the
    bound on ``||U^-1||_2``) are per row.
    """

    matrix: np.ndarray
    signed: np.ndarray | None
    singular: np.ndarray
    trusted: np.ndarray
    inverse: np.ndarray


class _ScreenPlan:
    """What the float screens read of a configuration, whatever its lifting.

    One plan serves every coefficient vector on its support (``_plan``
    caches it), so every array it holds is read only.  It holds the blocks
    and base points, the blocks the simplex pass screens (``screened``), the
    pair tables, and each pair once in grain units: ``unit``, the row's
    2-norm ``norm`` and their largest, ``reach``.  Blocks of at most n + 1
    points, blocks that do not affinely span R^n, and blocks whose simplices
    outnumber the candidates they could cut keep every pair.  The simplex
    pass's rows come with their ``_Factors``, built here once when they fit
    in one chunk and per solve, a chunk at a time, when they do not.
    """

    def __init__(self, config: CayleyConfig) -> None:
        n = config.n
        self.n, self.m = n, config.m
        blocks = self.blocks = tuple(tuple(config.block_indices(i)) for i in range(n))
        base = self.base = tuple(config.base_point(k) for k in range(config.m))
        sizes = self.sizes = tuple(len(blk) for blk in blocks)
        # Screening a block costs one float test per (n+1)-point simplex and
        # saves at most the product screen's candidates, so blocks are
        # screened, fewest points first, only while their simplices add up to
        # no more than that product.  A block of at most n + 1 points keeps
        # every pair: it spans less than R^n, or it is one simplex, all of
        # whose pairs are edges.
        budget = math.prod(math.comb(t, 2) for t in sizes)
        screened = []
        for i in sorted(range(n), key=sizes.__getitem__):
            cost = math.comb(sizes[i], n + 1)
            if cost > budget:
                break
            if sizes[i] > n + 1 and _spans_space([base[k] for k in blocks[i]], n):
                screened.append(i)
                budget -= cost
        self.screened = tuple(sorted(screened))
        pairs = self.pair_count = sum(math.comb(t, 2) for t in sizes)
        tables = _cached_pair_tables if pairs <= SCREEN_CHUNK else _pair_tables
        self.starts, self.first, self.second, pair_starts = tables(sizes)
        self.pair_starts = np.array(pair_starts)
        self.block = np.array(config.block, dtype=np.intp)
        # Points flat, block by block (Cayley order), as Python ints.  Per
        # pair one row U in grain units (the grain is the gcd of all
        # differences, taken from each point's difference to its block's
        # first point): the exact integer difference over the grain, rounded
        # once.  A lifting's right-hand sides over the grain then make
        # ``U gamma = rhs`` hold the equalities' gamma.
        ints = self.ints = np.array(base, dtype=object).reshape(-1, n)
        to_first = ints - ints[np.repeat(self.starts, sizes)]
        self.grain = math.gcd(*to_first.ravel().tolist())
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
        self._simplices = None
        if not screened:
            self._simplices = []
        elif sum(math.comb(sizes[i], n + 1) for i in screened) <= SCREEN_CHUNK:
            self._simplices = list(self._simplex_batches(_cached_simplex_rows))
        arrays = [self.starts, self.first, self.second, self.pair_starts, self.block]
        arrays += [ints, self.unit, self.coords, self.norm]
        for rows, blk, factors in self._simplices or ():
            arrays += [rows, blk, *(a for a in factors if a is not None)]
        for array in arrays:
            array.setflags(write=False)

    def simplices(self) -> Iterable[tuple[np.ndarray, np.ndarray, _Factors]]:
        """The simplex pass's rows and block column (``_simplex_rows``), a
        chunk at a time, each with the factors of its first n pairs."""
        if self._simplices is not None:
            return self._simplices
        return self._simplex_batches(_simplex_rows)

    def _simplex_batches(
        self, rows_of
    ) -> Iterator[tuple[np.ndarray, np.ndarray, _Factors]]:
        for rows, blk in rows_of(self.sizes, self.screened):
            yield rows, blk, self.factors(rows[:, : self.n])

    def factors(self, pairs: np.ndarray) -> _Factors:
        """The coefficient-free half of ``_FloatScreen._witness`` for rows of
        pair indices: each row's determinant, singular and trusted tests, and
        the matrix its gamma is solved from."""
        n = self.n
        count = len(pairs)
        with np.errstate(all="ignore"):
            # The rows of U are integers, so these tests hold at any scale.
            unit = self.unit[pairs]
            row_norm = self.norm[pairs]
            hadamard = np.prod(row_norm, axis=1)
            signed = None
            if n == 2:
                # At n = 2 a LAPACK call costs more in its wrapper than in
                # its arithmetic, so det U (and in ``_witness`` gamma =
                # adj(U) rhs / det U) comes from one closed form,
                # elementwise over the batch.
                matrix = unit.reshape(count, 4).T
                u00, u01, u10, u11 = matrix
                signed = u00 * u11 - u01 * u10
                det = np.abs(signed)
            else:
                det = np.abs(np.linalg.det(unit))
            growth = n * 2.0**n
            # Singular, with H the Hadamard bound, when H * n * 2^n <= 2^33
            # (H <= 2^30 at n = 2) and |det| < 0.5: the integer determinant
            # is then 0.  At n = 2 each product u00 u11 and u01 u10 is at
            # most H in size, so both are exact floats and so is their
            # difference.  At other n, LU with partial pivoting gives the
            # determinant of an integer matrix within about n * 2^n * eps * H,
            # below 2^-19.
            singular = (det < 0.5) & (hadamard * growth <= 2.0**33)
            # Margins are trusted only for well-conditioned matrices.  Every
            # cofactor of an integer matrix is at most H / (smallest row
            # norm), so cond_2 <= n^1.5 * H * (largest row norm) / (|det| *
            # smallest row norm); asking cond_2 * n * 2^n * eps <= 1e-9 keeps
            # LAPACK's gamma within 1e-9 * |gamma| of the exact-path gamma.
            # At n = 2 that asks 16 * 2^0.5 * eps * rho^2 <= 1e-9 * |det|, rho
            # the largest row norm.  The closed form's numerators are off by
            # at most eps * |adj U| |rhs| <= eps * |adj U| |U| |gamma|, at most
            # eps * ||U||_F^2 * |gamma| <= 2 eps rho^2 |gamma| in norm, as adj U
            # holds the entries of U.  Its determinant is off by at most eps
            # (H + |det|) / 2, and |det| <= H <= rho^2, so gamma is off by at
            # most 3.5 eps rho^2 / |det| relative, under a sixth of 1e-9.
            # Above H = 2^30 that holds with the rounded determinant too.
            # Rows of U are nonzero integer rows, so the smallest norm is at
            # least 1.
            min_norm = np.min(row_norm, axis=1)
            spread = np.max(row_norm, axis=1) / min_norm
            cond_det = n**1.5 * hadamard * spread
            trusted = cond_det * (growth * _EPS) <= 1e-9 * det
            if n != 2:
                # Untrusted matrices may be singular, which would make the
                # batched solve raise; an identity stands in and their
                # margins go unused.
                unit[~trusted] = np.eye(n)
                matrix = unit
            # ||U^-1||_2 <= n H / (|det| * smallest row norm), by the
            # cofactor bound above.
            inverse = n * hadamard / (det * min_norm)
        return _Factors(matrix, signed, singular, trusted, inverse)


def _plan(config: CayleyConfig) -> _ScreenPlan:
    """The screen plan of a configuration, shared by every lifting of it.

    Plans of at most SCREEN_CHUNK pairs are cached, keyed by the
    configuration's value (its points, so supports with equal block sizes
    but other points get plans of their own); larger plans are built per
    solve.  A plan keeps its simplex rows only when they fit in one chunk,
    so a cached plan holds at most SCREEN_CHUNK pairs and simplices, which
    bounds the memory the cache keeps.
    """
    sizes = [config.block.count(i) for i in range(config.n)]
    for i, t in enumerate(sizes):
        if t < 2:
            raise EmptySupport(f"support {i} has fewer than 2 points")
    if sum(math.comb(t, 2) for t in sizes) <= SCREEN_CHUNK:
        return _cached_plan(config)
    return _ScreenPlan(config)


_cached_plan = functools.lru_cache(maxsize=32)(_ScreenPlan)


class _FloatScreen:
    """Batched float tests of one lifting that discard what the exact test
    would reject.

    Two passes share one test (``_witness``), which takes the coefficient-
    free half of each row from ``plan`` (``_ScreenPlan.factors``).  The
    first runs over the plan's simplices of the ``screened`` blocks and
    keeps a block's point pair only if some simplex through it witnesses
    it; other blocks keep every pair.  The second runs over the product of
    the kept pairs, one pair per block, in ``itertools.product`` order.
    ``pairs`` holds the kept local index pairs of each block in
    ``combinations`` order and ``total`` the size of their product.  Each
    pair's right-hand side is held once, in grain units (``rhs``), and every
    bound reads the plan's ``reach``.
    """

    def __init__(self, plan: _ScreenPlan, lifting: Sequence[float]) -> None:
        self.plan = plan
        n = plan.n
        self.lift = np.array(lifting, dtype=float)
        self.rhs = (self.lift[plan.second] - self.lift[plan.first]) / plan.grain
        self.scale = 1.0 + float(np.abs(self.lift).max())

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
        kept = np.ones(plan.pair_count, dtype=bool)
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

    @property
    def pairs(self) -> list[list[tuple[int, int]]]:
        plan = self.plan
        return [
            list(zip((plan.first[ids] - s).tolist(), (plan.second[ids] - s).tolist()))
            for s, ids in zip(plan.starts, np.split(self.kept, self.cuts[1:-1]))
        ]

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

    def candidates(self) -> Iterator[tuple[tuple[int, int], ...]]:
        """The surviving per-block local pairs, in ``itertools.product`` order."""
        plan = self.plan
        offsets = self.cuts[:-1]
        blocks = np.arange(plan.n)[None, :]
        for start in range(0, self.total, SCREEN_CHUNK):
            flat = np.arange(start, min(start + SCREEN_CHUNK, self.total))
            idx = np.stack(np.unravel_index(flat, self.shape), axis=1)
            pairs = self.kept[idx + offsets]
            pairs = pairs[self._witness(pairs, pairs, blocks, 0.0, plan.factors(pairs))]
            firsts = (plan.first[pairs] - plan.starts).tolist()
            seconds = (plan.second[pairs] - plan.starts).tolist()
            for p, q in zip(firsts, seconds):
                yield tuple(zip(p, q))

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

        At n = 2 each row's determinant and gamma come from the closed-form
        2 x 2 adjugate in elementwise numpy arithmetic over the batch, whose
        products are exact wherever the singular test applies.  Other n take
        ``np.linalg.det`` and ``np.linalg.solve``, the one path that serves
        every n: the closed form grows with n (six products per determinant
        at n = 3), and no benchmark workload runs n other than 2 to show it
        paying there.  The bounds in ``_ScreenPlan.factors`` and below cover
        both paths.
        """
        # Every comparison that drops a row is False on NaN, so values that
        # overflow the float range, or a closed-form gamma divided by a zero
        # determinant, leave the row to the exact test.
        plan = self.plan
        n = plan.n
        count = len(pairs)
        with np.errstate(all="ignore"):
            rhs = self.rhs[pairs]
            if n == 2:
                u00, u01, u10, u11 = factors.matrix
                r0, r1 = rhs.T
                gamma = np.stack((u11 * r0 - u01 * r1, u00 * r1 - u10 * r0), axis=1)
                gamma /= factors.signed[:, None]
            else:
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

    The per-block and product float screens (``_FloatScreen``) only discard;
    they and the circuit table read the configuration's cached plan
    (``_plan``), so a second coefficient vector on a support pays only the
    lifting's share of the screens.
    Each survivor's n x n edge matrix is eliminated once, by
    ``det_adjugate``: a zero determinant skips the survivor, and the
    adjugate gives its float gamma (the negated normal, rounded once per
    entry as ``lattice.solve_exact`` rounds it) and, in one
    ``_circuit_table`` pass over every survivor, its exact circuit
    inequalities, one per excluded point.  The table is evaluated on the
    float lifting: a row's value over ``|zeta[witness]|`` is the witness's
    exclusion margin.  A survivor is a cell when all its margins are
    positive, and the returned set keeps its rows and their values.  A
    negative margin rejects it; otherwise a margin within
    ``TIE_RTOL * (1 + max|w|)`` of zero raises TieDegenerate for the first
    such survivor.
    """
    if len(lifting) != config.m:
        raise ValueError("lifting length must equal the Cayley point count")
    values = lifting.values
    plan = _plan(config)
    n, blocks, base = plan.n, plan.blocks, plan.base
    origin = config.origin_index
    screen = _FloatScreen(plan, values)
    # Per survivor its Cayley edges with the determinant and adjugate of its
    # edge matrix, the one elimination the circuit table reads too.
    survivors: list[tuple[tuple[tuple[int, int], ...], int, IntMatrix]] = []
    cells: list[MixedCell] = []
    for cand in screen.candidates():
        edges = tuple(
            _order_edge(blk[p], blk[q], values) for blk, (p, q) in zip(blocks, cand)
        )
        det, adj = det_adjugate(
            [[base[a][j] - base[b][j] for j in range(n)] for a, b in edges]
        )
        if det == 0:
            continue
        # ``solve_exact``'s own expression, so each normal matches it bit for bit.
        rhs = [values[b] - values[a] for a, b in edges]
        gamma = [sum(adj[i][j] * rhs[j] for j in range(n)) / det for i in range(n)]
        local = tuple((origin[a], origin[b]) for a, b in edges)
        survivors.append((edges, det, adj))
        cells.append(MixedCell(local, tuple(-g for g in gamma), abs(det)))

    table = _circuit_table(plan, survivors)
    row_values = table.values(lifting)
    with np.errstate(all="ignore"):
        margin = row_values / -table.coeffs[:, -1].astype(float)
        margin[np.abs(margin) < TIE_RTOL * screen.scale] = 0.0
    per_cell = plan.m - 2 * n
    margin = margin.reshape(len(survivors), per_cell)
    # A violated margin rejects the candidate outright; a tie only makes the
    # lifting degenerate when the candidate is otherwise a cell, i.e. the
    # tied point sits exactly on the candidate's face.
    kept = ~np.any(margin < 0, axis=1)
    tied = margin == 0
    degenerate = np.flatnonzero(kept & np.any(tied, axis=1))
    if degenerate.size:
        s = degenerate[0]
        point = int(table.points[s * per_cell + np.flatnonzero(tied[s])[-1], -1])
        edges = survivors[s][0]
        raise TieDegenerate(f"lifting ties on point {point} against cell {edges}")

    order = sorted(np.flatnonzero(kept), key=lambda s: cells[s].edges)
    rows = np.add.outer(np.array(order, dtype=np.intp) * per_cell, np.arange(per_cell))
    rows = rows.ravel()
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
    cells: Sequence[tuple[tuple[tuple[int, int], ...], int, IntMatrix]],
) -> CircuitTable:
    """The circuit inequalities of cells given by Cayley edge pairs, each
    with the nonzero determinant and the adjugate of its edge matrix.

    Rows go cell by cell in ``cells`` order and, within a cell, one per
    excluded point in block-major order.  Each is the unique affine
    dependence of the 2n cell points plus the excluded point, reduced to a
    primitive integer vector and oriented so the excluded point's entry is
    negative.  The Cayley tags and the homogenizing coordinate make each
    block's coefficients sum to zero, so the n x n edge matrix D (rows
    ``a_i - b_i``) is all the caller eliminates: for a point k of block j,
    with ``d = det D`` and ``l = (k - b_j) @ adj D``, the rows of D weighted
    by l sum to ``d * (k - b_j)``, and the dependence is ``l_i`` on ``a_i``,
    ``d * [i = j] - l_i`` on ``b_i`` and ``-d`` on k.  All rows are
    assembled at once, in object arrays of Python ints.  On a lifting a row
    evaluates to ``|zeta[k]|`` times k's exclusion margin: weighted by it,
    the cell points' lifted values are their faces' heights, and the gamma
    terms cancel.
    """
    n, count = plan.n, len(cells)
    width = 2 * n + 1
    if not count:
        return CircuitTable(np.zeros((0, width), np.intp), np.zeros((0, width), object))
    ends, dets, adjs = [], [], []
    for pairs, det, adj in cells:
        # Negating both negates the dependence and makes its entry -d on
        # the excluded point negative.
        if det < 0:
            det, adj = -det, [[-x for x in row] for row in adj]
        ends.append(pairs)
        dets.append(det)
        adjs.append(adj)
    # One row per (cell, excluded point), cells in order, points ascending.
    cell = np.array(ends, dtype=np.intp).reshape(count, 2 * n)
    outside = np.ones((count, plan.m), dtype=bool)
    outside[np.arange(count)[:, None], cell] = False
    owner, point = np.nonzero(outside)
    b_col = 2 * plan.block[point] + 1
    diff = plan.ints[point] - plan.ints[cell[owner, b_col]]
    lam = (diff[:, None, :] @ np.array(adjs, dtype=object)[owner])[:, 0, :]
    d = np.array(dets, dtype=object)[owner]
    # The gcd of the dependence is that of l and d.
    g = np.gcd(np.gcd.reduce(lam, axis=1), d)
    lam //= g[:, None]
    d //= g
    rows = len(point)
    dep = np.empty((rows, width), dtype=object)
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

    The one-cell entry to ``_circuit_table``, with the one ``det_adjugate``
    of the cell's edge matrix; see there for the dependence and its
    orientation.  A singular edge matrix raises SingularExponentMatrix.
    """
    plan = _plan(config)
    ends = tuple((blk[p], blk[q]) for blk, (p, q) in zip(plan.blocks, cell.edges))
    base = plan.base
    rows = [[x - y for x, y in zip(base[a], base[b])] for a, b in ends]
    det, adj = det_adjugate(rows)
    if det == 0:
        raise SingularExponentMatrix("cell points are affinely dependent")
    return _circuit_table(plan, [(ends, det, adj)])
