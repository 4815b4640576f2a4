from __future__ import annotations

import copy
import itertools
import math
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    KNOWN_CELL_EDGES_1BASED,
    KNOWN_CELL_PRIMITIVE_NORMAL,
    circuit_rows,
    dense_support,
    dense_system,
    dense_system_n,
    dyadic,
    random_sparse_system,
)
from oracles import (
    LP_MARGIN,
    adjugate_solve,
    bareiss_det,
    brute_force_mixed_cells,
    cofactor_adjugate,
    exact_edge_test,
    lp_mixed_cells,
    lp_upper_edges,
    reference_circuit_inequalities,
)
from realhomotopy import (
    EmptySupport,
    MixedCell,
    MixedCellSet,
    TieDegenerate,
    build_cayley,
    circuit_inequalities,
    enumerate_mixed_cells,
    log_abs_lifting,
    mixed_cell_count_bound,
    solve,
    support_system,
)
from reference_reports import reference_solves
from realhomotopy import lattice, mixed_cells
from realhomotopy.lattice import Lifting, int_det
from realhomotopy.mixed_cells import TIE_RTOL, _Plan, _Screen
import workloads


def _lifted(config, lifting, gamma, k):
    base = config.base_point(k)
    return sum(g * c for g, c in zip(gamma, base)) + float(lifting.values[k])


def _check_cell_normal(config, lifting, cell, rtol=1e-9):
    """Re-verify the defining equalities and strict margins of a cell."""
    gamma = [-float(v) for v in cell.normal]
    scale = 1.0 + max(abs(float(v)) for v in lifting.values)
    for i, (p, q) in enumerate(cell.edges):
        blk = config.block_indices(i)
        vp = _lifted(config, lifting, gamma, blk[p])
        vq = _lifted(config, lifting, gamma, blk[q])
        assert vp == pytest.approx(vq, abs=rtol * scale)
        for k in blk:
            if k in (blk[p], blk[q]):
                continue
            assert _lifted(config, lifting, gamma, k) < vp - 1e-12 * scale


class TestCubicConic:
    def test_six_unit_cells(self, cubic_conic):
        config = build_cayley(cubic_conic)
        cells = enumerate_mixed_cells(config, log_abs_lifting(cubic_conic))
        assert len(cells.cells) == 6
        assert all(c.volume == 1 for c in cells.cells)
        assert cells.total_volume() == 6

    def test_known_cell_and_normal(self, cubic_conic):
        config = build_cayley(cubic_conic)
        cells = enumerate_mixed_cells(config, log_abs_lifting(cubic_conic))
        match = [
            c
            for c in cells.cells
            if tuple((p + 1, q + 1) for p, q in c.edges) == KNOWN_CELL_EDGES_1BASED
        ]
        assert len(match) == 1
        cell = match[0]
        assert cell.volume == 1
        assert cell.primitive_normal == KNOWN_CELL_PRIMITIVE_NORMAL
        # Raw normal carries the log-lifting scale; direction is pinned.
        scale = abs(math.log(0.45))
        assert cell.normal == pytest.approx(
            tuple(scale * v for v in KNOWN_CELL_PRIMITIVE_NORMAL), rel=1e-12
        )

    def test_normal_certificates(self, cubic_conic):
        config = build_cayley(cubic_conic)
        lifting = log_abs_lifting(cubic_conic)
        cells = enumerate_mixed_cells(config, lifting)
        for cell in cells.cells:
            _check_cell_normal(config, lifting, cell)

    def test_deterministic(self, cubic_conic):
        config = build_cayley(cubic_conic)
        lifting = log_abs_lifting(cubic_conic)
        a = enumerate_mixed_cells(config, lifting)
        b = enumerate_mixed_cells(config, lifting)
        assert a.cells == b.cells

    def test_table_is_int64(self, cubic_conic):
        # Degree-3 points are far inside the Hadamard bound of
        # ``_exact_dtype``.
        cells = enumerate_mixed_cells(build_cayley(cubic_conic), log_abs_lifting(cubic_conic))
        assert cells.inequalities.coeffs.dtype == np.int64


class TestSmallCases:
    def test_single_candidate_dimension_one(self):
        system = support_system([[[0], [1]]], [[3.0, -7.0]])
        config = build_cayley(system)
        lifting = log_abs_lifting(system)
        cells = enumerate_mixed_cells(config, lifting)
        assert len(cells.cells) == 1
        cell = cells.cells[0]
        assert cell.edges == ((0, 1),)
        assert cell.volume == 1
        # Branch-exponent orientation: w(1) - w(0).
        expected = float(lifting.values[1]) - float(lifting.values[0])
        assert cell.normal[0] == pytest.approx(expected, rel=1e-12)

    def test_tie_raises(self):
        system = support_system([[[0], [1], [2]]], [[1.0, 1.0, 1.0]])
        config = build_cayley(system)
        with pytest.raises(TieDegenerate):
            enumerate_mixed_cells(config, log_abs_lifting(system))

    def test_empty_support(self):
        system = support_system([[[0, 0], [1, 0], [0, 1]], [[0, 0]]] , [[1.0, 1.0, 1.0], [1.0]])
        config = build_cayley(system)
        with pytest.raises(EmptySupport):
            enumerate_mixed_cells(config, log_abs_lifting(system))

    def test_volume_sums_match_bezout(self, rng):
        for d1, d2 in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            system = dense_system(d1, d2, rng)
            config = build_cayley(system)
            cells = enumerate_mixed_cells(config, log_abs_lifting(system))
            assert cells.total_volume() == d1 * d2


def _assert_matches_lp(system):
    config = build_cayley(system)
    lifting = log_abs_lifting(system)
    cells = enumerate_mixed_cells(config, lifting)
    expected = lp_mixed_cells(config, lifting)
    got = {tuple(tuple(sorted(e)) for e in c.edges): c for c in cells.cells}
    assert set(got) == {e for e, _, _ in expected}
    for edges, gamma, volume in expected:
        cell = got[edges]
        assert cell.volume == volume
        ours = np.array([float(v) for v in cell.normal])
        ref = -gamma
        assert np.allclose(ours / np.linalg.norm(ours), ref / np.linalg.norm(ref), atol=1e-7)


class TestOracleAgreement:
    def test_random_systems_match_lp(self, rng):
        for _ in range(30):
            _assert_matches_lp(random_sparse_system(rng))

    def test_random_n3_systems_match_lp(self, rng):
        for _ in range(12):
            _assert_matches_lp(random_sparse_system(rng, n=3, max_terms=4))


def _outcome(fn, *args):
    """The result of ``fn``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except TieDegenerate as exc:
        return type(exc), str(exc)


def _assert_matches_brute_force(system, lifting=None):
    config = build_cayley(system)
    lifting = lifting or log_abs_lifting(system)
    got = _outcome(enumerate_mixed_cells, config, lifting)
    if isinstance(got, MixedCellSet):
        seen = got.cells, circuit_rows(got.inequalities)
    else:
        seen = got
    assert seen == _outcome(brute_force_mixed_cells, config, lifting)
    return got


def _random_coefficients(rng, supports):
    """Log-uniform coefficients of random signs, one list per support."""
    return [
        (rng.choice([-1.0, 1.0], len(points)) * np.exp(rng.uniform(-3, 3, len(points)))).tolist()
        for points in supports
    ]


def _scaled(system, factor):
    return support_system(
        [[[factor * c for c in p] for p in s.points] for s in system.supports],
        system.coefficients,
    )


class TestScreenEquivalence:
    """The float screen only drops candidates the exact test rejects."""

    def test_random_sparse_n2(self, rng):
        for _ in range(25):
            _assert_matches_brute_force(
                random_sparse_system(rng, n=2, min_terms=3, max_terms=7)
            )

    def test_random_sparse_n3(self, rng):
        for _ in range(8):
            _assert_matches_brute_force(
                random_sparse_system(rng, n=3, min_terms=3, max_terms=5)
            )

    def test_random_sparse_n1(self, rng):
        for _ in range(25):
            _assert_matches_brute_force(random_sparse_system(rng, n=1, min_terms=3, max_terms=4))

    def test_random_sparse_n4(self, rng):
        # 3-4 terms per support: at most 6^4 = 1,296 candidates.
        for _ in range(4):
            _assert_matches_brute_force(random_sparse_system(rng, n=4, min_terms=3, max_terms=4))

    def test_exact_liftings_n3(self, rng):
        # Integer-valued and dyadic float liftings in three variables, with
        # many ties.
        for _ in range(12):
            system = random_sparse_system(rng, n=3, min_terms=4, max_terms=6)
            m = sum(len(s) for s in system.supports)
            ints = tuple(float(v) for v in rng.integers(-3, 4, size=m))
            nums = rng.integers(-50, 51, size=m)
            shifts = rng.integers(0, 3, size=m)
            _assert_matches_brute_force(system, Lifting(values=ints))
            _assert_matches_brute_force(system, Lifting(values=dyadic(nums, shifts)))

    def test_collinear_tie_n3(self, rng):
        # Block 0 starts with a = 0, b = (2, 2, 2) and k = (1, 1, 1) midway,
        # k lifted 0.3 * TIE_RTOL * scale above the midpoint of a's and b's
        # lifts: (a, b), the block's first pair, is an edge only within the
        # tie tolerance, so the first cell on it raises TieDegenerate, and a
        # screen that drops the pair or the cell's candidate reads
        # otherwise.  (On the line through a and k, b sits twice as far
        # from the face, still inside the tie tolerance.)
        raised = 0
        for _ in range(30):
            system = random_sparse_system(rng, n=3, min_terms=3, max_terms=5)
            supports = [s.points for s in system.supports]
            extra = [p for p in supports[0] if p not in [(0, 0, 0), (1, 1, 1), (2, 2, 2)]][:2]
            supports[0] = [(0, 0, 0), (2, 2, 2), (1, 1, 1), *extra]
            system = support_system(supports, _random_coefficients(rng, supports))
            values = list(log_abs_lifting(system).values)
            scale = 1.0 + max(abs(v) for v in values)
            values[2] = (values[0] + values[1]) / 2 + 0.3 * TIE_RTOL * scale
            got = _assert_matches_brute_force(system, Lifting(values=tuple(values)))
            raised += not isinstance(got, MixedCellSet)
        assert raised >= 5

    def test_dense_3_3(self, rng):
        for _ in range(3):
            cells = _assert_matches_brute_force(dense_system(3, 3, rng))
            assert cells.total_volume() == 9

    def test_exact_liftings(self, rng):
        # Integer-valued and dyadic float liftings, whose circuit values are
        # exact.
        for _ in range(10):
            system = random_sparse_system(rng, n=2, min_terms=3, max_terms=6)
            m = sum(len(s) for s in system.supports)
            ints = tuple(float(v) for v in rng.integers(-50, 51, size=m))
            nums = rng.integers(-500, 501, size=m)
            shifts = rng.integers(0, 6, size=m)
            _assert_matches_brute_force(system, Lifting(values=ints))
            _assert_matches_brute_force(system, Lifting(values=dyadic(nums, shifts)))

    def test_supports_scaled_by_2_40(self, rng):
        for _ in range(6):
            system = random_sparse_system(rng, n=2, min_terms=4, max_terms=6)
            system = _scaled(system, 2**40)
            _assert_matches_brute_force(system)
            # The singular test divides each row by the grain 2^40 first, so
            # every singular candidate built from the kept pairs is dropped
            # before the exact test, as it is unscaled.
            config = build_cayley(system)
            blocks = [config.block_indices(i) for i in range(config.n)]
            base = [config.base_point(k) for k in range(config.m)]
            screen = _screen(config, log_abs_lifting(system))
            kept = _survivor_pairs(screen)
            for cand in itertools.product(*_kept_pairs(screen)):
                rows = [
                    [base[blk[p]][j] - base[blk[q]][j] for j in range(config.n)]
                    for blk, (p, q) in zip(blocks, cand)
                ]
                if int_det(rows) == 0:
                    assert cand not in kept

    def test_singular_test_holds_at_any_scale(self):
        # The singular test runs on the pair differences over their grain, so
        # on dense (4, 4) supports scaled by 2^40 only the cells survive the
        # screens, as they do unscaled.
        system = dense_system(4, 4, np.random.default_rng(0))
        scaled = _scaled(system, 2**40)
        config = build_cayley(scaled)
        lifting = log_abs_lifting(scaled)
        survivors = _survivor_pairs(_screen(config, lifting))
        cells = enumerate_mixed_cells(config, lifting).cells
        assert survivors == {tuple(tuple(sorted(e)) for e in c.edges) for c in cells}
        unscaled = enumerate_mixed_cells(build_cayley(system), log_abs_lifting(system))
        assert [c.edges for c in cells] == [c.edges for c in unscaled.cells]
        assert [c.volume for c in cells] == [c.volume * 2**80 for c in unscaled.cells]

    def test_more_candidates_than_one_chunk(self, rng, monkeypatch, lines_made):
        # A small prime chunk splits the block pass on dense (2, 2, 2) into
        # chunks of 11 subsets per block, the last partial, and its crossing
        # test into chunks of middles, and makes the n = 2 screen test its
        # dense (4, 4) candidates in several batches of ``11 // (pairs kept
        # in block 1)`` pairs of block 0.
        monkeypatch.setattr(mixed_cells, "SCREEN_CHUNK", 11)
        system = dense_system_n((2, 2, 2), rng)
        screen = _screen(build_cayley(system), log_abs_lifting(system))
        subsets = math.comb(len(dense_support(2, 3)), 3)
        assert subsets % 11 != 0
        assert lines_made == ([11] * (subsets // 11) + [subsets % 11]) * 3
        lines_made.clear()
        screen.survivors()
        assert len(lines_made) >= 4
        assert _assert_matches_brute_force(system).total_volume() == 8
        system = dense_system(4, 4, rng)
        kept = _kept_pairs(_screen(build_cayley(system), log_abs_lifting(system)))
        assert 11 // len(kept[1]) < len(kept[0])
        assert _assert_matches_brute_force(system).total_volume() == 16

    def test_tie_on_infeasible_candidate_does_not_raise(self):
        # Edges (0, 1), (0, 2) and (1, 2) tie with the other one of points
        # 0-2 but leave point 3 above their face; only (0, 3) is a cell.
        system = support_system([[[0], [1], [2], [3]]], [[1.0, 1.0, 1.0, 1.0]])
        lifting = Lifting(values=(0.0, 0.0, 0.0, 1.0))
        cells = _assert_matches_brute_force(system, lifting)
        assert [c.edges for c in cells.cells] == [((0, 3),)]


def _dual_screen(points, values):
    """The n = 2 screen of two blocks (integer points and lifting values per
    block), its candidates as per-block local pairs in product order, and
    the set of those it keeps."""
    sizes = [len(blk) for blk in points]
    config = build_cayley(support_system(points, [[1.0] * t for t in sizes]))
    screen = _Plan(config).screen([v for row in values for v in row])
    cands = list(itertools.product(*(itertools.combinations(range(t), 2) for t in sizes)))
    return screen, cands, _survivor_pairs(screen)


def _may_pass(points, values, cand):
    """Whether ``oracles.exact_edge_test`` lets the exact test accept or tie
    on a candidate: a nonzero determinant and every exact margin above
    ``-TIE_RTOL * scale`` less the exact test's rounding of it."""
    scale = 1.0 + max(abs(v) for row in values for v in row)
    det, _, margins = exact_edge_test(points, values, cand)
    return bool(det) and all(m > -(TIE_RTOL * scale + err) for m, err in margins)


def _screen_verdicts(points, values):
    """Run the n = 2 screen on two blocks (integer points and lifting
    values per block) and judge every candidate by ``oracles.
    exact_edge_test``.

    Asserts that no candidate the exact test may accept or tie on is
    dropped: one with a nonzero determinant whose every exact margin is
    above ``-TIE_RTOL * scale`` less the exact test's rounding of it.  Also
    asserts that every exactly singular candidate is dropped.  Returns those
    two kinds of candidates, each with ``H^2``, H the Hadamard bound of its
    edge rows in grain units.
    """
    _, cands, kept = _dual_screen(points, values)
    grain = math.gcd(*(c - o for blk in points for p in blk for c, o in zip(p, blk[0])))
    scale = 1.0 + max(abs(v) for row in values for v in row)
    may_pass, singular = [], []
    for cand in cands:
        det, _, margins = exact_edge_test(points, values, cand)
        diffs = [
            [(x - y) // grain for x, y in zip(blk[p], blk[q])]
            for blk, (p, q) in zip(points, cand)
        ]
        hadamard_sq = math.prod(sum(x * x for x in row) for row in diffs)
        if det == 0:
            assert cand not in kept, cand
            singular.append((cand, hadamard_sq))
        elif all(m > -(TIE_RTOL * scale + err) for m, err in margins):
            assert cand in kept, cand
            may_pass.append((cand, hadamard_sq))
    return may_pass, singular


def _random_blocks(rng, count, low, high):
    """Two blocks of ``count`` distinct random points in ``[low, high)^2``."""
    points = []
    for _ in range(2):
        blk: set[tuple[int, int]] = set()
        while len(blk) < count:
            blk.add(tuple(int(v) for v in rng.integers(low, high, size=2)))
        points.append(sorted(blk))
    return points


def _unimodular_rows(rng, bits):
    """Rows (a, b), (c, d) with a, b in [2^(bits-1), 2^bits) and ad - bc = 1."""
    while True:
        a, b = (int(v) for v in rng.integers(2 ** (bits - 1), 2**bits, size=2))
        if math.gcd(a, b) == 1:
            d = pow(a, -1, b)
            return (a, b), ((a * d - 1) // b, d)


def _near_singular_rows(rng):
    """Rows (a, b), (c, d) near 2^30 with ad - bc = 1 whose float determinant
    fl(fl(ad) - fl(bc)) is not 1, because the products round."""
    while True:
        (a, b), (c, d) = _unimodular_rows(rng, 30)
        if float(a) * float(d) - float(b) * float(c) != 1:
            return (a, b), (c, d)


def _adversarial_blocks(rng, aligned):
    """Two blocks, each the origin, one row of a unimodular pair with entries
    near 2^20 to 2^34, and two points with coordinates near 2^50.  The far
    points are lifted onto the face of the cell ((0, 1), (0, 1)) within
    1e-6 relative when ``aligned``, and to random heights in [-3, 3] else."""
    rows = _unimodular_rows(rng, int(rng.integers(20, 35)))
    values = [rng.uniform(-3, 3, size=2).tolist() for _ in rows]
    gamma = exact_edge_test([[(0, 0), r] for r in rows], values, ((0, 1), (0, 1)))[1]
    points = []
    for j, row in enumerate(rows):
        far = [tuple(rng.integers(-(2**50), 2**50, size=2).tolist()) for _ in range(2)]
        points.append([(0, 0), row, *far])
        for x in far:
            if aligned:
                height = float(values[j][0] - sum(g * c for g, c in zip(gamma, x)))
                values[j].append(height * (1.0 + float(rng.uniform(-1e-6, 1e-6))))
            else:
                values[j].append(float(rng.uniform(-3, 3)))
    return points, values


def _tie_only(plan):
    """A copy of an n = 2 ``_Plan`` whose tolerance keeps only its TIE_RTOL
    term, every rounding term dropped."""
    bare, cut = copy.copy(plan), copy.copy(plan.cut)
    cut.slack = TIE_RTOL * np.where(cut.recip == 0, 1.0, np.abs(cut.recip))
    cut.level = np.where(np.isinf(cut.level), np.inf, TIE_RTOL)
    bare.cut = cut
    return bare


class TestClosedFormWitness:
    """At n = 2 the closed-form crossing test (Cramer's rule on two dual
    lines, ``_Screen``) drops only candidates that the exact test
    rejects, and every exactly singular one."""

    def test_small_integer_rows(self, rng):
        passing = 0
        for _ in range(12):
            points = _random_blocks(rng, int(rng.integers(4, 8)), 0, 7)
            values = [rng.uniform(-3, 3, size=len(blk)).tolist() for blk in points]
            passing += len(_screen_verdicts(points, values)[0])
        assert passing > 0

    def test_exactly_singular_rows(self, rng):
        # Both blocks put points on lines of slopes 1 and 2, so many
        # candidates pair parallel edges.
        points = [
            [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (1, 3), (2, 5)],
            [(0, 0), (2, 2), (5, 5), (1, 0), (2, 4), (4, 1)],
        ]
        for _ in range(5):
            values = [rng.uniform(-3, 3, size=len(blk)).tolist() for blk in points]
            may_pass, singular = _screen_verdicts(points, values)
            assert len(singular) >= 20 and may_pass

    def test_large_coprime_rows(self, rng):
        # Coordinates up to 2^31 put the integers of the test past 2^53,
        # where their floats round, and the plan's exact dtype to Python
        # ints.
        large = 0
        for _ in range(4):
            points = _random_blocks(rng, 5, 2**29, 2**31)
            values = [rng.uniform(-3, 3, size=5).tolist() for _ in points]
            may_pass, _ = _screen_verdicts(points, values)
            large += sum(h > 2**66 for _, h in may_pass)
        assert large > 0

    def test_rounded_determinant(self, rng):
        # A cell whose edge rows have determinant 1 but a float determinant
        # of 0 or at least 2.  Each block adds two points far on the side of
        # its face that the exact gamma puts below it.
        for _ in range(6):
            rows = _near_singular_rows(rng)
            values = [rng.uniform(-3, 3, size=4).tolist() for _ in rows]
            gamma = exact_edge_test(
                [[(0, 0), r] for r in rows], [v[:2] for v in values], ((0, 1), (0, 1))
            )[1]
            sign = [1 if g > 0 else -1 for g in gamma]
            far = [(-sign[0] * 2**24, 0), (0, -sign[1] * 2**24)]
            points = [[(0, 0), r, *far] for r in rows]
            hadamard_sq = dict(_screen_verdicts(points, values)[0])
            assert hadamard_sq[((0, 1), (0, 1))] > 2**66

    def test_only_exact_singular_rows_are_dropped_as_singular(self, rng):
        # Edge rows near 2^30: parallel ones (determinant 0) and unimodular
        # ones (determinant 1) whose float products round.  With every
        # interval opened to the whole line, the crossing test drops
        # exactly the rows of determinant 0.
        for _ in range(6):
            (a, b), (c, d) = _near_singular_rows(rng)
            points = [[(0, 0), (a, b), (2 * a, 2 * b), (c, d)], [(0, 0), (c, d), (a, b)]]
            values = [rng.uniform(-3, 3, size=len(blk)).tolist() for blk in points]
            screen, cands, _ = _dual_screen(points, values)
            screen.kept = np.arange(len(screen.plan.first))
            screen.ends = screen.ends.copy()
            # Rows rho, hi, lo and r: every interval the whole line.
            screen.ends[1], screen.ends[2] = np.inf, -np.inf
            kept = _survivor_pairs(screen)
            singular = {c for c in cands if not exact_edge_test(points, values, c)[0]}
            assert len(singular) >= 3
            assert kept == set(cands) - singular

    def test_near_parallel_rows_are_kept(self):
        # 400 seeded batches of near-singular cells with far points, aligned
        # liftings in every other batch.  No candidate the exact test may
        # pass is dropped.  The tolerance's rounding terms are what keeps
        # many of them: a screen whose tolerance is TIE_RTOL alone drops
        # candidates that the exact test may pass.
        rng = np.random.default_rng(7)
        kept_total = wrongly_dropped = 0
        for batch in range(400):
            points, values = _adversarial_blocks(rng, aligned=batch % 2 == 0)
            screen, cands, kept = _dual_screen(points, values)
            bare = _tie_only(screen.plan).screen(screen.lift.tolist())
            strict = _survivor_pairs(bare)
            assert strict <= kept
            kept_total += len(kept)
            for cand in cands:
                if cand not in kept:
                    assert not _may_pass(points, values, cand), cand
                elif cand not in strict:
                    wrongly_dropped += _may_pass(points, values, cand)
        assert kept_total > 2000 and wrongly_dropped > 50


def _exclusion_margin(config, values, cell, k):
    """How far Cayley point k lies below the face of ``cell``'s block of k,
    from the oracle's solve for gamma."""
    base = config.base_point
    edges = [
        tuple(config.block_indices(i)[p] for p in edge)
        for i, edge in enumerate(cell.edges)
    ]
    rows = [[x - y for x, y in zip(base(a), base(b))] for a, b in edges]
    gamma = adjugate_solve(rows, [values[b] - values[a] for a, b in edges])

    def lifted(p):
        return sum(g * c for g, c in zip(gamma, base(p))) + values[p]

    return lifted(edges[config.block[k]][0]) - lifted(k)


@pytest.fixture
def fresh_plans():
    """Clear the plan cache before and after a test that patches what a
    cached plan would hold or skip (``SCREEN_CHUNK``, ``_Lines``, ``_Plan``,
    ``_Screen.survivors``), so that no plan outlives its patch."""
    mixed_cells._cached_plan.cache_clear()
    yield
    mixed_cells._cached_plan.cache_clear()


@pytest.fixture
def lines_made(monkeypatch, fresh_plans):
    """The line count of each ``_Lines`` the screens build, in order."""
    counts = []

    class Counting(mixed_cells._Lines):
        def __init__(self, plan, rows, far=None):
            counts.append(len(rows))
            super().__init__(plan, rows, far)

    monkeypatch.setattr(mixed_cells, "_Lines", Counting)
    return counts


def _whole_product(plan):
    """Every candidate of a plan as rows of pair indices, in product order."""
    shape = tuple(np.diff(plan.pair_starts).tolist())
    rows = np.stack(np.unravel_index(np.arange(math.prod(shape)), shape), axis=1)
    return rows + plan.pair_starts[:-1]


@pytest.fixture(params=[True, False], ids=["screened", "unscreened"])
def screened(request, monkeypatch, fresh_plans):
    """Run with the float screens, or with every screen keeping the whole
    product so that the exact test sees every candidate, as the brute-force
    loop does."""
    if not request.param:
        monkeypatch.setattr(_Screen, "survivors", lambda self: _whole_product(self.plan))
    return request.param


# Block 0 is a diamond: its middle row (0, 1), (1, 1), (2, 1) is lifted to 0
# and its tips (1, 0), (1, 2) to 1.  A gamma that levels two middle-row points
# levels the third (a tie) and puts a tip above their face, so every
# candidate on a middle-row pair is an infeasible tie.
DIAMOND = support_system(
    [[[0, 1], [1, 1], [2, 1], [1, 0], [1, 2]], [[0, 0], [3, 1], [1, 3], [1, 1]]],
    [[1.0] * 5, [1.0] * 4],
)
DIAMOND_VALUES = (0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 7.0, 3.0, 11.0)


def _as_fractions(values):
    return [Fraction(v) for v in values]


def _planted_tie():
    """DIAMOND_VALUES with the last excluded point of block 1 lifted exactly
    onto the face of the last cell, a lifting that ties on that cell."""
    config = build_cayley(DIAMOND)
    cells = enumerate_mixed_cells(config, Lifting(values=DIAMOND_VALUES))
    cell = cells.cells[-1]
    coeffs, k = circuit_rows(circuit_inequalities(cell, config))[-1]
    assert config.block[k] == 1 and coeffs[k] == -1
    values = list(DIAMOND_VALUES)
    margin = _exclusion_margin(config, _as_fractions(values), cell, k)
    assert margin.denominator == 1
    values[k] += float(margin)
    return Lifting(values=tuple(values))


class TestTiesInTwoVariables:
    """TieDegenerate, its message and its point equal the brute-force loop's."""

    def test_dense_all_ones(self, screened):
        # Every float lift is 0, so every nonsingular candidate ties.
        system = support_system([dense_support(2)] * 2, [[1.0] * 6] * 2)
        got = _assert_matches_brute_force(system)
        assert got[0] is TieDegenerate

    def test_ties_on_infeasible_candidates_only(self, screened):
        # The first candidate ties on point 2 with tip 3 or 4 above its face.
        config = build_cayley(DIAMOND)
        first = MixedCell(edges=((0, 1), (0, 1)), normal=(), volume=0)
        values = _as_fractions(DIAMOND_VALUES)
        margins = [_exclusion_margin(config, values, first, k) for k in (2, 3, 4)]
        assert margins[0] == 0 and min(margins[1:]) < 0
        cells = _assert_matches_brute_force(DIAMOND, Lifting(values=DIAMOND_VALUES))
        assert cells.total_volume() == 8

    def test_unscreened_keeps_the_whole_product(self, screened):
        # The switch the tie tests run under: unscreened, every candidate
        # of DIAMOND's 60 reaches the exact test, singular ones included.
        config = build_cayley(DIAMOND)
        screen = mixed_cells._plan(config).screen(DIAMOND_VALUES)
        rows = screen.survivors().tolist()
        everything = _whole_product(screen.plan).tolist()
        assert len(everything) == 60
        if screened:
            cells = enumerate_mixed_cells(config, Lifting(values=DIAMOND_VALUES)).cells
            assert len(rows) == len(cells) < 60
        else:
            assert rows == everything

    def test_planted_tie_on_a_cell(self, screened):
        got = _assert_matches_brute_force(DIAMOND, _planted_tie())
        assert got[0] is TieDegenerate

    def test_float_tie_is_judged_by_the_margin(self, rng, screened):
        # Put a point 0.5 * TIE_RTOL * scale below a cell's face, on a circuit
        # whose witness coefficient is at least 3 in size: a tie by its
        # margin, though the circuit's value is beyond the tie tolerance.
        for _ in range(20):
            system = random_sparse_system(rng, n=2, min_terms=4, max_terms=6)
            config = build_cayley(system)
            lifting = log_abs_lifting(system)
            found = [
                (cell, coeffs, k)
                for cell in enumerate_mixed_cells(config, lifting).cells
                for coeffs, k in circuit_rows(circuit_inequalities(cell, config))
                if coeffs[k] <= -3
            ]
            if found:
                break
        cell, coeffs, k = found[0]
        values = list(lifting.values)
        scale = 1.0 + max(abs(v) for v in values)
        values[k] += _exclusion_margin(config, values, cell, k) - 0.5 * TIE_RTOL * scale
        planted = Lifting(values=tuple(values))
        margin = _exclusion_margin(config, values, cell, k)
        tie_tol = TIE_RTOL * (1.0 + max(abs(v) for v in values))
        value = sum(c * values[j] for j, c in coeffs.items())
        assert 0 < margin < tie_tol < abs(value)
        got = _assert_matches_brute_force(system, planted)
        assert got[0] is TieDegenerate


class TestScreenExactness:
    """On the benchmark corpora the n = 2 screen passes the cells alone."""

    def test_survivors_are_the_cells(self):
        # Seeds 1-3 of every workload, each screened on the plan that
        # ``_plan`` returns (cached or not) and on a cold build.
        count = 0
        for family, label, system, _ in reference_solves():
            if family not in workloads.WORKLOADS:
                continue
            config, lifting = build_cayley(system), log_abs_lifting(system)
            warm = mixed_cells._plan(config).screen(lifting.values)
            cold = _screen(config, lifting)
            assert np.array_equal(warm.survivors(), cold.survivors()), label
            cells = enumerate_mixed_cells(config, lifting).cells
            edges = {tuple(tuple(sorted(e)) for e in c.edges) for c in cells}
            assert _survivor_pairs(warm) == edges == _survivor_pairs(cold), label
            count += 1
        assert count == 279


def _screen(config, lifting):
    """The screen of a lifting on a fresh plan."""
    return mixed_cells._build_plan(config).screen(lifting.values)


def _local_pairs(plan, pairs):
    """Pair indices of a plan as (p, q) local to their blocks, p < q."""
    blk = plan.block[plan.first[pairs]]
    p = (plan.first[pairs] - plan.starts[blk]).tolist()
    q = (plan.second[pairs] - plan.starts[blk]).tolist()
    return list(zip(p, q))


def _survivor_pairs(screen):
    """A screen's survivors as a set of per-block local pairs."""
    rows = screen.survivors()
    return {tuple(_local_pairs(screen.plan, row)) for row in rows}


def _kept_pairs(screen):
    """The kept local pairs of each block, in combinations order."""
    plan = screen.plan
    blk = plan.block[plan.first[screen.kept]]
    pairs = _local_pairs(plan, screen.kept)
    return [[e for e, b in zip(pairs, blk) if b == i] for i in range(plan.n)]


def _spans(points):
    pts = np.array(points)
    return np.linalg.matrix_rank(pts[1:] - pts[0]) == pts.shape[1]


def _assert_keeps_upper_edges(system, lifting=None, generic=False, hull=None):
    """The per-block kept pairs contain every LP upper edge, ties included.

    With ``generic``, blocks that span R^n keep exactly the strict edges.
    ``hull`` is the system whose supports give the LP its points (by default
    ``system`` itself).
    """
    lifting = lifting or log_abs_lifting(system)
    kept = _kept_pairs(_screen(build_cayley(system), lifting))
    config = build_cayley(hull or system)
    for i, pairs in enumerate(kept):
        blk = config.block_indices(i)
        points = [config.base_point(k) for k in blk]
        values = [lifting.values[k] for k in blk]
        if generic:
            edges = lp_upper_edges(points, values)
            if _spans(points):
                assert set(pairs) == edges
        else:
            edges = lp_upper_edges(points, values, margin=-LP_MARGIN)
        assert edges <= set(pairs)
    return kept


class TestUpperEdgeScreen:
    """Each block keeps every upper-hull edge: the per-block pass of the
    general screen, and the nonempty intervals of the n = 2 screen."""

    def test_random_n2_keeps_exactly_the_edges(self, rng):
        for _ in range(25):
            system = random_sparse_system(rng, n=2, min_terms=3, max_terms=7)
            _assert_keeps_upper_edges(system, generic=True)

    def test_random_n3_keeps_exactly_the_edges(self, rng):
        for _ in range(8):
            system = random_sparse_system(rng, n=3, min_terms=4, max_terms=7)
            _assert_keeps_upper_edges(system, generic=True)

    def test_exact_liftings(self, rng):
        # Integer-valued and dyadic float liftings, with many ties.
        for _ in range(8):
            system = random_sparse_system(rng, n=2, min_terms=4, max_terms=6)
            m = sum(len(s) for s in system.supports)
            ints = tuple(float(v) for v in rng.integers(-3, 4, size=m))
            nums = rng.integers(-50, 51, size=m)
            shifts = rng.integers(0, 3, size=m)
            _assert_keeps_upper_edges(system, Lifting(values=ints))
            _assert_keeps_upper_edges(system, Lifting(values=dyadic(nums, shifts)))

    def test_exact_liftings_n3(self, rng):
        for _ in range(4):
            system = random_sparse_system(rng, n=3, min_terms=5, max_terms=6)
            m = sum(len(s) for s in system.supports)
            ints = tuple(float(v) for v in rng.integers(-3, 4, size=m))
            nums = rng.integers(-50, 51, size=m)
            shifts = rng.integers(0, 3, size=m)
            _assert_keeps_upper_edges(system, Lifting(values=ints))
            _assert_keeps_upper_edges(system, Lifting(values=dyadic(nums, shifts)))

    def test_supports_scaled_by_2_40(self, rng):
        # Scaling the supports scales gamma and keeps the upper-hull edges.
        for n, count in ((2, 6), (3, 3)):
            for _ in range(count):
                system = random_sparse_system(rng, n=n, min_terms=4, max_terms=6)
                _assert_keeps_upper_edges(
                    _scaled(system, 2**40), log_abs_lifting(system), hull=system
                )

    def test_collinear_block_keeps_every_pair(self):
        # The block pass keeps every pair of a block that has no affinely
        # independent 3-point subset: block 0 lies on a line in R^3.
        system = support_system(
            [
                [[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3], [4, 4, 4], [5, 5, 5]],
                [[0, 0, 0], [2, 0, 1], [0, 1, 0], [1, 1, 2], [1, 3, 0], [0, 0, 2]],
                [[0, 0, 0], [1, 0, 0], [0, 2, 1], [1, 1, 1], [3, 0, 1], [0, 1, 3]],
            ],
            [
                [1.0, -2.5, 0.7, 3.0, -0.4, 1.9],
                [2.0, -0.3, 1.5, -4.0, 0.2, 0.9],
                [-1.2, 0.6, 2.2, -0.8, 3.1, 0.35],
            ],
        )
        kept = _assert_keeps_upper_edges(system)
        assert kept[0] == list(itertools.combinations(range(6), 2))
        assert len(kept[1]) < math.comb(6, 2)
        _assert_matches_brute_force(system)

    def test_collinear_block_keeps_its_line_edges(self):
        # At n = 2 a block on a line keeps the pairs that no point of the
        # line rises above: the upper edges of its points lifted over the
        # line, here (0, 1), (1, 3) and every pair of the tied 1, 2, 3.
        system = support_system(
            [[[0, 0], [1, 1], [2, 2], [3, 3]], [[0, 0], [2, 0], [0, 1], [1, 1], [1, 3]]],
            [[1.0, 2.0, 2.0, 2.0], [2.0, -0.3, 1.5, -4.0, 0.2]],
        )
        lifting = log_abs_lifting(system)
        kept = _assert_keeps_upper_edges(system)
        assert kept[0] == [(0, 1), (1, 2), (1, 3), (2, 3)]
        _assert_matches_brute_force(system, lifting)

    def test_univariate_ties(self):
        system = support_system([[[0], [1], [2], [3]]], [[1.0, 1.0, 1.0, 1.0]])
        _assert_keeps_upper_edges(system, Lifting(values=(0.0, 0.0, 0.0, 1.0)))
        # All four points tie, so every pair lies on the upper face.
        kept = _assert_keeps_upper_edges(system, Lifting(values=(0.0,) * 4))
        assert kept == [list(itertools.combinations(range(4), 2))]


def _assert_cramer(rows, frame, rng):
    """A frame's rows are Cramer's numerators, by ``oracles.bareiss_det``:
    ``<d, x> = det [U; x]`` and ``<cof_i, x>`` the determinant of ``[U; d]``
    with row i replaced by x, for random integer x."""
    *cofs, d = frame
    for x in rng.integers(-5, 6, size=(3, len(d))).tolist():
        assert sum(a * b for a, b in zip(d, x)) == bareiss_det([*rows, x])
        for i, cof in enumerate(cofs):
            matrix = [*rows[:i], x, *rows[i + 1 :], d]
            assert sum(a * b for a, b in zip(cof, x)) == bareiss_det(matrix)


class TestSpansSpace:
    """Whether n - 1 pairs span an (n-1)-space, decided exactly: the
    direction d of their line (``_frames``) is 0 exactly when they do not.
    Checked against numpy's rank on small integers, and against answers
    known by construction where coordinates leave the integers that a float
    holds exactly; every frame's rows are Cramer's numerators."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_matrix_rank_on_small_integers(self, rng, n):
        # Every third set of rows lies in an (n-2)-space.
        answers = set()
        for trial in range(300):
            if trial % 3:
                rows = rng.integers(-3, 4, size=(n - 1, n))
            else:
                directions = rng.integers(-3, 4, size=(n - 2, n))
                rows = rng.integers(-3, 4, size=(n - 1, n - 2)) @ directions
            want = np.linalg.matrix_rank(rows) == n - 1
            frame = mixed_cells._frames(rows[None].astype(np.int64))[0].tolist()
            assert any(frame[-1]) == want
            _assert_cramer(rows.tolist(), frame, rng)
            answers.add((trial % 3 == 0, bool(want)))
        assert {(False, True), (True, False)} <= answers

    @pytest.mark.parametrize("scale", [2**60, 10**30], ids=["2^60", "10^30"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_known_answers_at_large_coordinates(self, rng, n, scale):
        # Directions d_i = scale * (1, ..., 1) + e_i have determinant
        # 1 + n * scale, yet round to one float direction.  The first n - 1
        # span an (n-1)-space; the first n - 2 and an integer combination of
        # them do not.
        directions = [[scale + (i == j) for j in range(n)] for i in range(n)]
        weights = rng.integers(-5, 6, size=n - 2).tolist()
        combo = [sum(w * d[j] for w, d in zip(weights, directions)) for j in range(n)]
        cases = ((directions[: n - 1], True), ([*directions[: n - 2], combo], False))
        for rows, want in cases:
            frame = mixed_cells._frames(np.array([rows], dtype=object))[0].tolist()
            assert any(frame[-1]) == want
            _assert_cramer(rows, frame, rng)
        if n > 2:
            # A float rank misses the spanning rows' rank.
            assert np.linalg.matrix_rank(np.array(directions[: n - 1], dtype=float)) < n - 1


def _unbalanced(rng, large, small):
    """A system in two variables with a block of ``large`` random points and
    a fixed block of ``small`` points."""
    grid = [[i, j] for i in range(11) for j in range(11)]
    chosen = sorted(rng.choice(len(grid), size=large, replace=False).tolist())
    supports = [[grid[k] for k in chosen], [[0, 0], [1, 2], [2, 0], [0, 1]][:small]]
    coefficients = [
        [float(s) * float(np.exp(rng.uniform(-3.0, 3.0))) for s in signs]
        for signs in (rng.choice([-1.0, 1.0], t) for t in (large, small))
    ]
    return support_system(supports, coefficients)


def _unbalanced_n3(rng, large, small):
    """A system in three variables with a block of ``large`` random points,
    a fixed 2-point block and a fixed block of ``small`` points (2 or 5)."""
    grid = [[i, j, k] for i in range(4) for j in range(4) for k in range(4)]
    chosen = sorted(rng.choice(len(grid), size=large, replace=False).tolist())
    blocks = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    supports = [[grid[k] for k in chosen], [[0, 0, 0], [1, 1, 0]], blocks[:small]]
    coefficients = [
        [float(s) * float(np.exp(rng.uniform(-3.0, 3.0))) for s in signs]
        for signs in (rng.choice([-1.0, 1.0], len(pts)) for pts in supports)
    ]
    return support_system(supports, coefficients)


class TestScreenCost:
    """The block pass builds one line per n-point subset of each block, and
    the crossing test builds side b's lines only for middles that have a
    line on side a."""

    def test_unbalanced_supports(self, rng, lines_made):
        # 14 points have C(14, 3) = 364 subsets, a 2-point block none (it
        # keeps its one pair) and a 5-point block C(5, 3) = 10.
        for small in (2, 5):
            system = _unbalanced_n3(rng, 14, small)
            lines_made.clear()
            screen = _screen(build_cayley(system), log_abs_lifting(system))
            assert sum(lines_made) == math.comb(14, 3) + math.comb(small, 3)
            kept = _kept_pairs(screen)
            assert kept[1] == [(0, 1)]
            lines_made.clear()
            screen.survivors()
            assert lines_made[0] == len(kept[0])
            assert sum(lines_made[1:]) <= len(kept[2])
            _assert_matches_brute_force(system)


def _enumeration(system, lifting=None):
    """An enumeration's cells and table (points, coefficients and values),
    or the message of the TieDegenerate it raised."""
    lifting = lifting or log_abs_lifting(system)
    try:
        got = enumerate_mixed_cells(build_cayley(system), lifting)
    except TieDegenerate as exc:
        return str(exc)
    table = got.inequalities
    rows = table.points.tolist(), table.coeffs.tolist(), table.values(lifting).tolist()
    return got.cells, *rows


def _plan_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _plan_arrays(item)


class TestScreenPlan:
    """One plan per support serves every lifting of it, as a cold build does."""

    def test_warm_plan_equals_cold_build(self, rng, fresh_plans):
        # A coefficient family on DIAMOND's support: log, integer-valued and
        # dyadic liftings, and a planted tie.
        supports = [s.points for s in DIAMOND.supports]
        m = build_cayley(DIAMOND).m
        liftings = [Lifting(values=DIAMOND_VALUES), _planted_tie()]
        for _ in range(4):
            signs = rng.choice([-1.0, 1.0], m) * np.exp(rng.uniform(-3, 3, m))
            coeffs = [signs[:5].tolist(), signs[5:].tolist()]
            liftings.append(log_abs_lifting(support_system(supports, coeffs)))
            ints = rng.integers(-50, 51, size=m).tolist()
            liftings.append(Lifting(values=tuple(map(float, ints))))
            shifts = rng.integers(0, 6, size=m).tolist()
            liftings.append(Lifting(values=dyadic(ints, shifts)))
        cold = []
        for lifting in liftings:
            mixed_cells._cached_plan.cache_clear()
            cold.append(_enumeration(DIAMOND, lifting))
        mixed_cells._cached_plan.cache_clear()
        warm = [_enumeration(DIAMOND, lifting) for lifting in liftings]
        info = mixed_cells._cached_plan.cache_info()
        assert (info.hits, info.misses) == (len(liftings) - 1, 1)
        assert warm == cold
        ties = [got for got in cold if isinstance(got, str)]
        assert ties and len(ties) < len(cold) - 8
        assert cold[1] == "lifting ties on point 7 against cell ((2, 4), (6, 8))"

    def test_equal_sizes_other_points(self, fresh_plans):
        # Block sizes 5 and 4 both; the second moves one point of block 1.
        supports = [s.points for s in DIAMOND.supports]
        moved = [supports[0], [*supports[1][:-1], (2, 2)]]
        coeffs = [[1.0, -2.0, 3.0, 0.5, 7.0], [2.0, -1.5, 0.25, 4.0]]
        one = support_system(supports, coeffs)
        other = support_system(moved, coeffs)
        plan = mixed_cells._plan(build_cayley(one))
        rescaled = [[3.0 * c for c in row] for row in coeffs]
        assert plan is mixed_cells._plan(build_cayley(support_system(supports, rescaled)))
        assert plan is not mixed_cells._plan(build_cayley(other))
        assert plan.sizes == mixed_cells._plan(build_cayley(other)).sizes
        warm = [_enumeration(one), _enumeration(other)]
        mixed_cells._cached_plan.cache_clear()
        assert _enumeration(other) == warm[1]
        mixed_cells._cached_plan.cache_clear()
        assert _enumeration(one) == warm[0]
        assert warm[0] != warm[1]

    def test_plan_arrays_are_read_only(self, rng):
        # DIAMOND's n = 2 plan holds its pairs' lines and their cut: edges,
        # squared lengths, frames, slopes, projections and tolerance
        # factors, 23 arrays.  An n = 3 plan holds its tables, points,
        # edges and their lengths, 10 arrays.
        small = random_sparse_system(rng, n=3, min_terms=4, max_terms=4)
        for system, count in ((DIAMOND, 23), (small, 10)):
            plan = mixed_cells._plan(build_cayley(system))
            assert plan.ints.dtype == np.int64
            parts = [plan, getattr(plan, "lines", None), getattr(plan, "cut", None)]
            held = [value for part in parts if part for value in vars(part).values()]
            arrays = list(_plan_arrays(held))
            assert len(arrays) >= count
            for array in arrays:
                first = (0,) * array.ndim
                with pytest.raises(ValueError):
                    array[first] = array[first]

    def test_huge_exponents_plan_holds_no_floats(self):
        # Exponents near 10^200 put the slopes' floats out of range: the
        # plan holds none, and its screen keeps every nonsingular candidate.
        big = 10**200
        system = support_system(
            [[[0, 0], [big, 1], [1, 0]], [[0, 0], [0, 1], [1, big], [1, 1]]],
            [[1.0, -2.0, 3.0], [1.0, -3.0, 2.0, 0.5]],
        )
        config = build_cayley(system)
        plan = mixed_cells._plan(config)
        assert not plan.floats and plan.ints.dtype == object
        with np.errstate(all="raise"):
            rows = plan.screen(log_abs_lifting(system).values).survivors()
        everything = _whole_product(plan).tolist()
        kept = [
            row
            for row in everything
            if int_det(
                [
                    [x - y for x, y in zip(config.base_point(a), config.base_point(b))]
                    for a, b in zip(plan.first[row], plan.second[row])
                ]
            )
        ]
        assert rows.tolist() == kept and len(kept) < len(everything)

    def test_second_solve_builds_no_plan(self, rng, monkeypatch, fresh_plans):
        # Dense (2, 2, 2): a cold solve builds its plan, a warm one on the
        # same support builds none and reads as a cold one does.
        built = []

        class Counting(mixed_cells._Plan):
            def __init__(self, config):
                built.append(config)
                super().__init__(config)

        monkeypatch.setattr(mixed_cells, "_Plan", Counting)
        first, second = dense_system_n((2, 2, 2), rng), dense_system_n((2, 2, 2), rng)
        _enumeration(first)
        assert len(built) == 1
        got = _enumeration(second)
        assert len(built) == 1
        mixed_cells._cached_plan.cache_clear()
        assert _enumeration(second) == got and len(built) == 2

    def test_small_support_screens_once(self, rng, lines_made):
        # The n = 2 plan holds every pair's line and their cut: a cold solve
        # on DIAMOND's support builds its 10 + 6 lines once, and a warm one
        # builds none.  Each n = 3 solve on a 4-term support builds the
        # lines of its block pass, the 4 subsets of each block, and then
        # those of its crossing test.
        small = random_sparse_system(rng, n=3, min_terms=4, max_terms=4)
        for system, first, again in ((DIAMOND, [16], []), (small, [4] * 3, [4] * 3)):
            supports = [s.points for s in system.supports]
            for want in (first, again):
                coeffs = _random_coefficients(rng, supports)
                lines_made.clear()
                assert not isinstance(_enumeration(support_system(supports, coeffs)), str)
                assert lines_made[: len(want)] == want
                assert len(lines_made) == len(want) or system is small

    def test_screen_chunk_changes_no_enumeration(self, rng, monkeypatch, fresh_plans):
        # A chunk of 7 splits the n = 3 block pass and crossing test into
        # many chunks, and the n = 2 crossing test into many batches.
        # Cells, tables, values and TieDegenerate messages read the same,
        # DIAMOND's cases and its planted tie among them.
        cases = [(random_sparse_system(rng, n=3, min_terms=3, max_terms=5), None) for _ in range(8)]
        cases += [(DIAMOND, Lifting(values=DIAMOND_VALUES)), (DIAMOND, _planted_tie())]
        for _ in range(24):
            supports = [s.points for s in random_sparse_system(rng, n=3, max_terms=5).supports]
            small = [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]
            coeffs = [rng.choice(small, len(points)).tolist() for points in supports]
            cases.append((support_system(supports, coeffs), None))
        default = [_enumeration(*case) for case in cases]
        monkeypatch.setattr(mixed_cells, "SCREEN_CHUNK", 7)
        mixed_cells._cached_plan.cache_clear()
        assert [_enumeration(*case) for case in cases] == default
        ties = [got for got in default if isinstance(got, str)]
        assert len(ties) >= 3 and len(ties) < len(default) - 12

    def test_large_support_is_not_cached(self, rng, fresh_plans):
        # 91 + 2 points have SCREEN_CHUNK pairs, so their plan is cached;
        # 92 + 2 points have more, so theirs is built per solve and freed.
        for large, cached in ((91, True), (92, False)):
            system = _unbalanced(rng, large, 2)
            config = build_cayley(system)
            assert (math.comb(large, 2) + 1 <= mixed_cells.SCREEN_CHUNK) == cached
            before = mixed_cells._cached_plan.cache_info().currsize
            assert _enumeration(system)[0]
            assert mixed_cells._cached_plan.cache_info().currsize == before + cached
            plan = weakref.ref(mixed_cells._plan(config))
            assert (plan() is not None) == cached

    @pytest.mark.parametrize(
        "sizes",
        [(2,), (4, 5), (5, 5, 5), (91, 2), (92, 2), (200, 200)],
        ids=lambda sizes: "-".join(map(str, sizes)),
    )
    def test_pair_tables_match_combinations(self, sizes):
        # Every plan, cached or not ((91, 2) and (92, 2) sit on either side
        # of the bound), builds its own tables: block starts, each block's
        # pairs in combinations order as flat indices, and pair offsets.
        starts, first, second, pair_starts = mixed_cells._pair_tables(sizes)
        offsets = list(itertools.accumulate(sizes, initial=0))
        pairs = [
            (s + p, s + q)
            for s, t in zip(offsets, sizes)
            for p, q in itertools.combinations(range(t), 2)
        ]
        counts = [math.comb(t, 2) for t in sizes]
        assert starts.tolist() == offsets[:-1]
        assert list(zip(first.tolist(), second.tolist())) == pairs
        assert pair_starts.tolist() == list(itertools.accumulate(counts, initial=0))
        assert first.dtype == second.dtype == np.intp

    def test_threads_share_plans(self, fresh_plans):
        # The dense (3, 3) corpus of generator seed 0 (eight systems on one
        # support), solved from 4 threads at once, each in its own order,
        # equals the serial solve.
        gen = np.random.default_rng(0)
        systems = [dense_system(3, 3, gen) for _ in range(8)]

        def run(order):
            out = []
            for i in order:
                report = solve(systems[i])
                table = report.cells.inequalities
                rows = table.points.tolist(), table.coeffs.tolist()
                out.append((i, report.cells.cells, *rows, report.certificate.margins))
            return out

        serial = run(range(8))
        orders = [np.random.default_rng(k).permutation(8).tolist() for k in range(4)]
        mixed_cells._cached_plan.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(run, 3 * order) for order in orders]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert len(result) == 24
            assert all(solved == serial[solved[0]] for solved in result)


class TestDenseHigherDimension:
    """Dense systems in three variables: BKK equals Bezout, d^3."""

    def test_dense_volumes(self, rng):
        for d in (2, 3):
            system = dense_system_n((d, d, d), rng)
            cells = enumerate_mixed_cells(build_cayley(system), log_abs_lifting(system))
            assert cells.total_volume() == d**3
            for cell in cells.cells:
                _check_cell_normal(build_cayley(system), log_abs_lifting(system), cell)

    def test_pruning_on_dense_3_3_3(self, rng):
        system = dense_system_n((3, 3, 3), rng)
        product = math.comb(len(dense_support(3, 3)), 2) ** 3
        assert product == 6_859_000
        config, lifting = build_cayley(system), log_abs_lifting(system)
        cells = enumerate_mixed_cells(config, lifting).cells
        assert len(_screen(config, lifting).survivors()) <= 2 * len(cells)


def _substituted_n3(system, k):
    """The system under ``x = y^M``, ``M = [[K+1, K, 0], [K, K-1, 0], [0, 0,
    1]]`` (determinant -1): each exponent vector a becomes ``a M``."""
    m = [[k + 1, k, 0], [k, k - 1, 0], [0, 0, 1]]
    supports = [
        [[sum(p[i] * m[i][j] for i in range(3)) for j in range(3)] for p in s.points]
        for s in system.supports
    ]
    return support_system(supports, system.coefficients)


class TestUnimodularSubstitution:
    """A unimodular substitution maps each support linearly onto one of the
    same lattice volume and keeps the lifting, so it keeps every cell: the
    same edges and volumes.  Exponents near 10^3 leave the n = 3 screen as
    selective as small ones do; the test prints its survivor counts."""

    @pytest.mark.parametrize("k", [10, 10**3], ids=["K=10", "K=10^3"])
    def test_dense_and_random_n3(self, k):
        rng = np.random.default_rng(39)
        systems = [dense_system_n((2, 2, 2), rng), dense_system_n((3, 3, 3), rng)]
        systems += [random_sparse_system(rng, n=3, min_terms=3, max_terms=5) for _ in range(4)]
        for index, system in enumerate(systems):
            original = enumerate_mixed_cells(build_cayley(system), log_abs_lifting(system))
            moved = _substituted_n3(system, k)
            config, lifting = build_cayley(moved), log_abs_lifting(moved)
            if index < 2:
                got = enumerate_mixed_cells(config, lifting)
            else:
                got = _assert_matches_brute_force(moved)
            assert [(c.edges, c.volume) for c in got.cells] == [
                (c.edges, c.volume) for c in original.cells
            ]
            survivors = len(_screen(config, lifting).survivors())
            print(f"system {index} at K = {k}: {survivors} survivors, {len(got.cells)} cells")
            assert survivors <= 2 * len(got.cells)


def _stack_agrees(matrices):
    """Hold ``mixed_cells._det_adjugate`` of an (s, n, n) stack, matrix by
    matrix, to ``oracles.bareiss_det`` and ``lattice.det_adjugate`` (the
    adjugate of a singular matrix to ``oracles.cofactor_adjugate``).
    Returns how many matrices are singular."""
    dets, adjs = mixed_cells._det_adjugate(matrices)
    assert dets.shape == matrices.shape[:1] and adjs.shape == matrices.shape
    assert dets.dtype == adjs.dtype == matrices.dtype
    singular = 0
    for matrix, det, adj in zip(matrices.tolist(), dets.tolist(), adjs.tolist()):
        assert type(det) is int and det == bareiss_det(matrix)
        want_det, want_adj = lattice.det_adjugate(matrix)
        assert det == want_det
        if det == 0:
            singular += 1
            want_adj = cofactor_adjugate(matrix)
        assert adj == want_adj
    return singular


def _singular_rows(rng, matrix):
    """``matrix`` with its last row made a combination of the others, or
    zero at n = 1."""
    combination = rng.integers(-3, 4, size=len(matrix) - 1)
    matrix[-1] = combination @ matrix[:-1] if len(matrix) > 1 else 0
    return matrix


class TestBatchedElimination:
    """``_det_adjugate``, the exact stage's one elimination, matrix by matrix
    against the package's single-matrix Bareiss pass and the oracles."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_stacks(self, rng, n):
        matrices = rng.integers(-9, 10, size=(60, n, n))
        # A third sparse, so many minors vanish, and every fourth singular.
        matrices[::3] *= rng.random((20, n, n)) < 0.4
        for matrix in matrices[::4]:
            _singular_rows(rng, matrix)
        assert _stack_agrees(matrices) >= 15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_int64_at_the_exact_dtype_bound(self, rng, n):
        # Edge matrices of base points as large as _exact_dtype lets int64
        # hold: every partial sum of the expansion stays exact.
        largest, above = 1, 2**64
        while above - largest > 1:
            middle = (largest + above) // 2
            if mixed_cells._exact_dtype(n, middle) is np.int64:
                largest = middle
            else:
                above = middle
        edge = 2 * largest
        matrices = rng.choice([-edge, -edge + 1, edge - 1, edge], size=(40, n, n))
        for matrix in matrices[::5]:
            _singular_rows(rng, matrix)
        _stack_agrees(matrices.astype(np.int64))

    @pytest.mark.parametrize("top", [2**60, 10**30], ids=["2^60", "10^30"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_object_stacks(self, rng, n, top):
        matrices = np.empty((24, n, n), dtype=object)
        for index in np.ndindex(matrices.shape):
            matrices[index] = top - int(rng.integers(0, 1000)) if rng.random() < 0.7 else 0
            matrices[index] *= int(rng.choice([-1, 1]))
        for matrix in matrices[::4]:
            _singular_rows(rng, matrix)
        assert _stack_agrees(matrices) >= 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_stack(self, n):
        for dtype in (np.int64, object):
            dets, adjs = mixed_cells._det_adjugate(np.empty((0, n, n), dtype=dtype))
            assert dets.shape == (0,) and adjs.shape == (0, n, n)
            assert dets.dtype == adjs.dtype == dtype


class TestSingularSurvivors:
    """With every candidate a survivor, the exact stage skips exactly those
    whose edge matrix is singular and reads the rest as the screened
    enumeration does."""

    def _every_candidate(self, system, monkeypatch):
        config, lifting = build_cayley(system), log_abs_lifting(system)
        screened = enumerate_mixed_cells(config, lifting)
        seen = []
        det_adjugate = mixed_cells._det_adjugate

        def recorded(matrices):
            dets, adjs = det_adjugate(matrices)
            seen.append((matrices.tolist(), dets.tolist()))
            return dets, adjs

        with monkeypatch.context() as patch:
            patch.setattr(_Screen, "survivors", lambda self: _whole_product(self.plan))
            patch.setattr(mixed_cells, "_det_adjugate", recorded)
            every = enumerate_mixed_cells(config, lifting)
        ((matrices, dets),) = seen
        assert len(matrices) == math.prod(math.comb(len(s), 2) for s in system.supports)
        assert [det == 0 for det in dets] == [bareiss_det(m) == 0 for m in matrices]
        assert every.cells == screened.cells
        for name in ("points", "coeffs"):
            got, want = getattr(every.inequalities, name), getattr(screened.inequalities, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert every.values.tobytes() == screened.values.tobytes()
        return dets.count(0)

    def test_no_float_plan(self, monkeypatch, fresh_plans):
        # The shape of test_huge_exponents_plan_holds_no_floats' supports at
        # 10^151: the plan holds no floats, its screen drops the singular
        # candidates alone, and the determinants' floats stay in range.  At
        # 10^200 determinants reach 10^399, and enumeration raises
        # OverflowError converting them to floats for the gammas.
        big = 10**151
        system = support_system(
            [[[0, 0], [big, 1], [1, 0]], [[0, 0], [0, 1], [1, big], [1, 1]]],
            [[1.0, -2.0, 3.0], [1.0, -3.0, 2.0, 0.5]],
        )
        plan = mixed_cells._plan(build_cayley(system))
        assert not plan.floats and plan.ints.dtype == object
        assert self._every_candidate(system, monkeypatch) > 0

    def test_small_exponents(self, rng, monkeypatch, fresh_plans):
        singular = 0
        for system in [random_sparse_system(rng, n=2, max_terms=6) for _ in range(6)]:
            singular += self._every_candidate(system, monkeypatch)
        system = random_sparse_system(rng, n=3, max_terms=4)
        singular += self._every_candidate(system, monkeypatch)
        assert singular > 0

    def test_one_variable(self, monkeypatch, fresh_plans):
        # At n = 1 every candidate reaches the exact stage, and none is
        # singular: the points of a block are distinct.
        system = support_system([[[0], [3], [1], [7], [4]]], [[1.0, -2.0, 0.5, 3.0, -1.0]])
        assert self._every_candidate(system, monkeypatch) == 0


class TestOneBatchedElimination:
    """The exact stage eliminates every survivor's edge matrix at once, in
    ``_det_adjugate``: enumeration calls none of ``lattice``'s single-matrix
    eliminations, and its normals and volumes are theirs."""

    def test_random_systems(self, rng, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        systems = [random_sparse_system(rng, n=2, max_terms=6) for _ in range(10)]
        systems += [random_sparse_system(rng, n=3, max_terms=4) for _ in range(4)]
        systems += [random_sparse_system(rng, n=1, max_terms=5) for _ in range(2)]
        results = []
        with monkeypatch.context() as patch:
            for module in (lattice, mixed_cells):
                for name in ("det_adjugate", "int_det", "solve_exact"):
                    if hasattr(module, name):
                        patch.setattr(module, name, counted(name, getattr(module, name)))
            for system in systems:
                config, lifting = build_cayley(system), log_abs_lifting(system)
                results.append((config, lifting, enumerate_mixed_cells(config, lifting)))
        assert calls == []
        for config, lifting, cells in results:
            assert cells.cells
            values = lifting.values
            for cell in cells.cells:
                ends = [
                    (config.block_indices(i)[p], config.block_indices(i)[q])
                    for i, (p, q) in enumerate(cell.edges)
                ]
                rows = [
                    [x - y for x, y in zip(config.base_point(a), config.base_point(b))]
                    for a, b in ends
                ]
                rhs = [values[b] - values[a] for a, b in ends]
                gamma = lattice.solve_exact(rows, rhs)
                assert [v.hex() for v in cell.normal] == [(-g).hex() for g in gamma]
                assert type(cell.volume) is int and cell.volume == abs(bareiss_det(rows))


def _ordered(rows):
    # Dict order included: the order in which a row's value is summed.
    return [(list(coeffs.items()), witness) for coeffs, witness in rows]


class TestCircuits:
    def test_matches_signed_minors(self, cubic_conic, rng):
        systems = [cubic_conic]
        systems += [random_sparse_system(rng, n=2) for _ in range(10)]
        systems += [random_sparse_system(rng, n=3, max_terms=4) for _ in range(5)]
        # Determinants and circuit entries past 2^63 before the primitive
        # reduction: an int64 table would wrap on these.
        systems += [
            _scaled(random_sparse_system(rng, n=3, max_terms=4), 10**7)
            for _ in range(3)
        ]
        for system in systems:
            config = build_cayley(system)
            cells = enumerate_mixed_cells(config, log_abs_lifting(system))
            assert cells.cells
            assert list(cells.cells) == sorted(cells.cells, key=lambda c: c.edges)
            want = []
            for cell in cells.cells:
                got = circuit_rows(circuit_inequalities(cell, config))
                ref = reference_circuit_inequalities(cell, config)
                assert _ordered(got) == _ordered(ref)
                want += ref
            # The enumeration's own table: every cell's circuits, in order.
            assert _ordered(circuit_rows(cells.inequalities)) == _ordered(want)

    @pytest.mark.parametrize(
        "top, dtype", [(2**23, np.int64), (2**31, object)], ids=["2^23", "2^31"]
    )
    def test_exact_dtype_at_large_coordinates(self, top, dtype):
        # Edges of length near 2^(top bits + 1), almost orthogonal: within
        # the Hadamard bound of ``_exact_dtype`` at 2^23, and at 2^31 with
        # determinants and primitive entries past 2^63, which int64 cannot
        # hold.
        supports = [
            [(top - 1, top - 2), (-top + 1, -top + 5), (3, -7)],
            [(top - 3, -top + 4), (-top + 2, top - 5), (-11, 2)],
        ]
        system = support_system(supports, [[1.0, -2.0, 0.5], [3.0, 0.25, -1.5]])
        config = build_cayley(system)
        cells = enumerate_mixed_cells(config, log_abs_lifting(system))
        table = cells.inequalities
        assert cells.cells and table.coeffs.dtype == dtype
        largest = max(abs(c) for row in table.coeffs.tolist() for c in row)
        assert (largest >= 2**63) == (dtype is object)
        want = []
        for cell in cells.cells:
            ref = reference_circuit_inequalities(cell, config)
            assert _ordered(circuit_rows(circuit_inequalities(cell, config))) == _ordered(ref)
            want += ref
        assert _ordered(circuit_rows(table)) == _ordered(want)

    def test_unique_univariate_circuit(self):
        system = support_system([[[0], [1], [2]]], [[1.0, 0.2, 1.0]])
        config = build_cayley(system)
        lifting = Lifting(values=(0.0, -1.0, 0.0))
        cells = enumerate_mixed_cells(config, lifting)
        assert len(cells.cells) == 1
        assert cells.cells[0].edges == ((0, 2),)
        table = circuit_inequalities(cells.cells[0], config)
        assert _ordered(circuit_rows(table)) == [([(0, 1), (2, 1), (1, -2)], 1)]
        assert table.values(lifting).tolist() == [2.0]

    def test_circuit_properties_random(self, rng):
        for _ in range(10):
            system = random_sparse_system(rng)
            config = build_cayley(system)
            lifting = log_abs_lifting(system)
            cells = enumerate_mixed_cells(config, lifting)
            n = config.n
            t = max(len(s) for s in system.supports)
            for cell in cells.cells:
                table = circuit_inequalities(cell, config)
                rows = circuit_rows(table)
                assert len(rows) == config.m - 2 * n
                assert len(rows) <= n * (t - 2)
                assert all(float(v) > 0 for v in table.values(lifting))
                for coeffs, k in rows:
                    assert len(coeffs) <= 2 * n + 1
                    assert coeffs[k] < 0
                    # The vector annihilates the homogenized configuration.
                    dim = 2 * n - 1
                    for r in range(dim):
                        assert (
                            sum(v * config.points[j][r] for j, v in coeffs.items())
                            == 0
                        )
                    assert sum(coeffs.values()) == 0

    def test_value_is_scaled_margin(self, rng):
        # zeta . w / -zeta[witness] is the witness's exclusion margin, within
        # rounding for log liftings and exactly for integer-valued and dyadic
        # ones, whose circuit values are exact.
        for n, count in ((2, 8), (3, 4)):
            for _ in range(count):
                system = random_sparse_system(rng, n=n, min_terms=3, max_terms=5)
                config = build_cayley(system)
                m = config.m
                ints = rng.integers(-10**6, 10**6, size=m).tolist()
                shifts = rng.integers(0, 10, size=m).tolist()
                liftings = [
                    (log_abs_lifting(system), False),
                    (Lifting(values=tuple(map(float, ints))), True),
                    (Lifting(values=dyadic(ints, shifts)), True),
                ]
                for lifting, exact in liftings:
                    values = lifting.values
                    fractions = _as_fractions(values)
                    scale = 1.0 + max(abs(v) for v in values)
                    cells = enumerate_mixed_cells(config, lifting).cells
                    assert cells
                    for cell in cells:
                        table = circuit_inequalities(cell, config)
                        rows = circuit_rows(table)
                        for value, (coeffs, k) in zip(table.values(lifting), rows):
                            if exact:
                                want = _exclusion_margin(config, fractions, cell, k)
                                assert Fraction(value) / -coeffs[k] == want
                            else:
                                got = value / -coeffs[k]
                                want = _exclusion_margin(config, values, cell, k)
                                assert abs(got - want) <= 1e-12 * scale

    def test_witness_entry_is_cell_volume(self, cubic_conic):
        # The excluded point's coefficient is the cell simplex volume up to
        # the primitive rescaling.
        config = build_cayley(cubic_conic)
        cells = enumerate_mixed_cells(config, log_abs_lifting(cubic_conic))
        for cell in cells.cells:
            for coeffs, k in circuit_rows(circuit_inequalities(cell, config)):
                assert abs(coeffs[k]) <= cell.volume


class TestCountBound:
    def test_reference_values(self):
        assert mixed_cell_count_bound(2, 8) == 728
        assert mixed_cell_count_bound(2, 8) < 2**12
        assert mixed_cell_count_bound(1, 2) == 4
        assert mixed_cell_count_bound(2, 3) == 48

    def test_domain(self):
        with pytest.raises(ValueError):
            mixed_cell_count_bound(0, 3)
        with pytest.raises(ValueError):
            mixed_cell_count_bound(2, 1)

    def test_bounds_cell_count(self, rng):
        for _ in range(10):
            system = random_sparse_system(rng)
            config = build_cayley(system)
            cells = enumerate_mixed_cells(config, log_abs_lifting(system))
            t = max(len(s) for s in system.supports)
            assert len(cells.cells) <= mixed_cell_count_bound(config.n, t)
