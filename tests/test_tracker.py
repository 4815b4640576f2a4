from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    HELD_OUT_CONVERGED,
    cubic_conic_system,
    held_out_forced,
    orthant_point,
    quadratic_system,
    random_sparse_system,
)
from oracles import loop_log_h_scale, quadratic_real_roots
from reference_reports import reference_solves
from realhomotopy import (
    SolverConfig,
    build_cayley,
    binomial_from_cell,
    enumerate_mixed_cells,
    log_abs_lifting,
    make_homotopy,
    make_path,
    real_orthants,
    solve,
    solve_real,
    support_system,
    track,
)
from realhomotopy import _kernels, pipeline, tracker
from realhomotopy.lattice import log_abs
from realhomotopy.tracker import FORCED_T0, TrackedSolution, select_t0, term_signs


def _cells_and_homotopy(system):
    config = build_cayley(system)
    lifting = log_abs_lifting(system)
    cells = enumerate_mixed_cells(config, lifting)
    return cells, make_homotopy(system, lifting)


# Exact real-zero counts in (R*)^2 of the cubic/conic and of the 20
# random_sparse_system(rng, n=2, min_terms=4, max_terms=5) from
# np.random.default_rng(3), in that order: the forced-tracking corpus.
# Computed once with the sympy recipe in
# test_certified_seed9_corpus_tracks_every_start (at most a minute a system).
# A system would be left out if its resultant were 0 or its two projections
# disagreed; none of these 21 is.
FORCED_EXACT_COUNTS = (6, 3, 3, 4, 2, 3, 4, 1, 4, 2, 2, 1, 1, 2, 2, 2, 2, 2, 2, 3, 1)


# Upper bound on the jac_dlam calls of forced solves of _forced_corpus().
# Measured with numpy 2.4: 1,620 when step correctors had 3 iterates and the
# fold test ran once, at a step's second failed corrector, from that
# attempt's last iterate; 1,285 with 4 iterates and the fold test also at the
# fourth failure, each time from the step's lowest-residual failed attempt.
# The bound leaves 5% for kernels that round differently on other numpy
# versions (CI also runs numpy 1.24).
FORCED_CORPUS_CALLS = 1_350


def _forced_corpus():
    rng = np.random.default_rng(3)
    systems = [cubic_conic_system()]
    systems += [
        random_sparse_system(rng, n=2, min_terms=4, max_terms=5) for _ in range(20)
    ]
    return list(zip(systems, FORCED_EXACT_COUNTS))


def _plain_newton(kernel, h, weights, lam, u, ctol, iters):
    """Newton in u at fixed lam, ``iters`` iterates unless it converges
    first, from ``kernel`` (``_kernels.jac_dlam``) and ``np.linalg.solve``:
    whether it converged, and how many tables it evaluated."""
    for it in range(iters + 1):
        table = kernel(h.logc, lam * h.vexp, h.exps, h.starts, h.eq, weights, u)
        hv = table[:, 0]
        if np.isfinite(hv).all() and np.abs(hv).max() < ctol:
            return True, it + 1
        if it == iters:
            break
        try:
            du = np.linalg.solve(table[:, 1:-1], hv)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(du).all():
            break
        u = u - du
    return False, it + 1


def _fold_lam(message):
    """The lam a "fold at lam=..." failure message names."""
    prefix = "fold at lam="
    assert message.startswith(prefix), message
    return float(message[len(prefix) :])


class TestMakeHomotopy:
    def test_logc_and_signs_match_the_coefficients(self):
        # make_homotopy takes logc from the log|c| lifting and a Fraction's
        # sign from its numerator.  Both must equal log_abs(c) and sign(c)
        # bit for bit: on the reference solves (the three benchmark corpora
        # at seeds 1-3 and the held-out forced systems) and on ints, floats
        # and Fractions of either sign beyond the float range.
        extreme = support_system(
            [[[0], [1], [2], [3], [4]]],
            [[-(10**400), Fraction(-1, 10**320), Fraction(10**400, 3), 2.5, -3]],
        )
        solves = list(reference_solves())
        families = {family for family, _, _, _ in solves}
        assert families >= {"dense_cells", "track_forced", "certified_scaled"}
        for system in [system for _, _, system, _ in solves] + [extreme]:
            h = make_homotopy(system, log_abs_lifting(system))
            coeffs = [c for cs in system.coefficients for c in cs]
            logs = np.array([log_abs(c) for c in coeffs], dtype=np.float64)
            assert h.logc.tobytes() == logs.tobytes()
            assert h.signs.tolist() == [1.0 if c > 0 else -1.0 for c in coeffs]


class TestTermSigns:
    """Term signs come from the parity of the exact exponents: 2**53 + 1 is
    odd, but as a float it reads 2**53, which is even."""

    BIG = 2**53 + 1

    def test_odd_exponent_beyond_float_parity(self):
        system = support_system([[[0], [self.BIG]]], [[2, 1]])
        h = make_homotopy(system, log_abs_lifting(system))
        assert term_signs(h, (-1,)).tolist() == [1.0, -1.0]
        assert term_signs(h, (1,)).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize(
        "supports, coefficients, point",
        [
            ([[[0], [BIG]]], [[2, 1]], (-1.0,)),
            ([[[0, 0], [BIG, 0]], [[0, 0], [0, 1]]], [[2, 1], [-3, 1]], (-1.0, 3.0)),
        ],
    )
    def test_certified_zero_of_x_to_2_53_plus_1(self, supports, coefficients, point):
        # x^(2^53 + 1) = -2 has one real zero, x = -2^(1 / (2^53 + 1)).
        report = solve(support_system(supports, coefficients))
        assert report.verdict is True
        assert report.failures == []
        [zero] = report.solutions
        assert zero.signs == tuple(int(v) for v in np.sign(point))
        assert zero.logs[0] == pytest.approx(math.log(2.0) / self.BIG, rel=1e-9)
        assert zero.point == pytest.approx(point, rel=1e-12)


class TestStartPoint:
    def test_identity_at_t_one(self, cubic_conic):
        # At t0 = 1 the start u = -normal is the binomial solution itself.
        cells, _ = _cells_and_homotopy(cubic_conic)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, cubic_conic))[0]
        path = make_path(cell, sol.signs, 1.0)
        assert path.lam == 0.0
        x = np.array(path.signs) * np.exp(path.u)
        assert tuple(x) == pytest.approx(orthant_point(sol), rel=1e-14)

    def test_residual_decays_with_t0(self, cubic_conic):
        # The truncated branch point is a zero of the deformed system in the
        # toric limit: its residual, each equation scaled by its largest
        # term, falls with t0; at FORCED_T0 this start already meets the
        # corrector tolerance.
        cells, h = _cells_and_homotopy(cubic_conic)
        cell = next(c for c in cells.cells if c.primitive_normal == (-2, -1))
        sol = solve_real(binomial_from_cell(cell, cubic_conic))[0]
        signs = term_signs(h, sol.signs)
        offs = np.append(h.starts, h.logc.size)
        residuals = []
        for t0 in (1e-1, 1e-2, 1e-3, FORCED_T0):
            path = make_path(cell, sol.signs, t0)
            hv, _ = loop_log_h_scale(
                signs, h.logc, h.exps, h.vexp, offs, path.lam, path.u
            )
            residuals.append(float(np.abs(hv).max()))
        assert all(a > b for a, b in zip(residuals, residuals[1:]))
        assert residuals[2] < 1e-4
        assert residuals[3] < tracker.CORRECTOR_TOL

    def test_make_path_reads_only_the_signs(self, cubic_conic):
        # The start is the truncated branch point u = -(1 + lam) * normal at
        # lam = -log t0, in the orthant it is given: the cell and the orthant
        # are all that make_path reads, whichever orthant that is.
        cells, _ = _cells_and_homotopy(cubic_conic)
        for cell in cells.cells:
            normal = np.array(cell.normal)
            for signs in itertools.product((-1, 1), repeat=2):
                path = make_path(cell, signs, 1e-3)
                assert path.lam == -math.log(1e-3)
                assert path.signs == signs
                assert np.array_equal(path.u, -(1.0 + path.lam) * normal)
                assert np.array_equal(path.normal, normal)

    def test_binomial_start_logs_are_minus_the_normal(self):
        # The start rests on log|sol| = -normal, which holds because the
        # lifting is w = log|c|.  The two sides come from different
        # eliminations: binomial._solve_logs on log|r| and the cell normal
        # from lifting differences, so they agree only up to rounding.
        # The forced corpus starts with the cubic/conic.
        systems = [s for s, _ in _forced_corpus()]
        systems += [s for _, s in held_out_forced()]
        starts = 0
        for system in systems:
            cells, _ = _cells_and_homotopy(system)
            for cell in cells.cells:
                normal = np.array(cell.normal)
                scale = max(1.0, float(np.abs(normal).max()))
                for sol in solve_real(binomial_from_cell(cell, system)):
                    logs = np.array(sol.logs)
                    assert np.abs(logs + normal).max() <= 1e-12 * scale
                    starts += 1
        assert starts == 916

    def test_linear_univariate_start_is_root(self):
        system = support_system([[[0], [1]]], [[3.0, 2.0]])
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, system))[0]
        assert orthant_point(sol)[0] == pytest.approx(-1.5, rel=1e-14)
        sols = track(homotopy, [make_path(cell, sol.signs, 0.1)])
        assert len(sols) == 1
        assert sols[0].point[0] == pytest.approx(-1.5, rel=1e-10)


def _signed_power(system, k):
    """``system`` with every coefficient c replaced by ``sign(c) * |c|**k``,
    exact coefficients kept exact."""
    return support_system(
        [s.points for s in system.supports],
        [
            [(1 if c > 0 else -1) * abs(c) ** k for c in row]
            for row in system.coefficients
        ],
    )


def _certified_candidates():
    """The certified_scaled benchmark corpus at seed 1, then the cubic/conic
    with coefficients ``sign(c) |c|^k`` for k = 14..24 and the 40 seed-9
    ``|c|^8`` systems, unscaled: (label, system) pairs, certified or not."""
    systems = [
        (label, system)
        for family, label, system, _ in reference_solves()
        if family == "certified_scaled" and label.endswith("@1")
    ]
    systems += [
        (f"cubic_conic_k{k}", _signed_power(cubic_conic_system(), k))
        for k in range(14, 25)
    ]
    rng = np.random.default_rng(9)
    systems += [
        (
            f"seed9_{i:02d}",
            _signed_power(random_sparse_system(rng, n=2, min_terms=4, max_terms=6), 8),
        )
        for i in range(40)
    ]
    return systems


def _mutated_first_cell(monkeypatch, mutate):
    """Make ``pipeline.solve`` read ``mutate(orthants)`` as the orthants of
    the real starts of the first cell that has any."""
    real_orthants_, done = pipeline.real_orthants, []

    def patched(cell, system):
        orthants = real_orthants_(cell, system)
        if orthants and not done:
            done.append(True)
            return mutate(orthants)
        return orthants

    monkeypatch.setattr(pipeline, "real_orthants", patched)


class TestStartT0:
    def test_forced_paths_start_at_the_constant_and_certified_at_the_target(
        self, monkeypatch
    ):
        # select_t0 is the one t0 rule: every path of a certificate pass
        # starts at lam = 0, every other forced path at lam = -log(1e-8), and
        # no solve evaluates the residual kernel h_scale.
        assert (select_t0(True), select_t0(False)) == (1.0, 1e-8)
        make_path_, started = pipeline.make_path, []

        def recording(cell, signs, t0):
            path = make_path_(cell, signs, t0)
            started.append(path.lam)
            return path

        def h_scale(*args):
            raise AssertionError("a solve called h_scale")

        monkeypatch.setattr(pipeline, "make_path", recording)
        monkeypatch.setattr(_kernels, "h_scale", h_scale)
        systems = [system for _, system in _certified_candidates()]
        systems += [system for system, _ in _forced_corpus()]
        lams = Counter()
        for system in systems:
            started.clear()
            report = solve(system, SolverConfig(force=True))
            want = 0.0 if report.verdict else -math.log(1e-8)
            assert started == [want] * sum(report.start_solutions)
            lams[want] += len(started)
        assert lams == {0.0: 178, -math.log(1e-8): 402}


class TestCertifiedPaths:
    def test_start_at_the_target_and_end_where_tracking_does(self):
        # On a certificate pass each path starts at the target, t0 = 1, and
        # takes no step.  Its endpoint is the zero that the same start
        # reaches when tracked from FORCED_T0, as a forced path is.
        systems, paths = 0, 0
        for label, system in _certified_candidates():
            report = solve(system)
            if not report.verdict:
                continue
            systems += 1
            assert report.failures == [], label
            assert len(report.solutions) == sum(report.start_solutions)
            assert all(s.steps == 0 for s in report.solutions)
            cells, homotopy = _cells_and_homotopy(system)
            tracked_paths = []
            for cell in cells.cells:
                tracked_paths.extend(
                    make_path(cell, signs, FORCED_T0)
                    for signs in real_orthants(cell, system)
                )
            tracked = track(homotopy, tracked_paths)
            assert len(tracked) == len(report.solutions), label
            for at_target, along in zip(report.solutions, tracked):
                assert at_target.point == pytest.approx(along.point, rel=1e-12)
            paths += len(tracked)
        # 18 at seed 1 (13 of them raised OverflowError while t0 was scored
        # in x), the 11 cubic/conic powers and the 7 seed-9 passes.
        assert (systems, paths) == (36, 178)

    @pytest.mark.parametrize("mutation", ["duplicated", "flipped"])
    def test_a_wrong_start_is_a_recorded_failure(self, monkeypatch, mutation):
        # A start that is not one of the cell's, repeated or in another
        # orthant, must never add a solution: it ends on another path's zero
        # (both fail as coinciding) or misses the endpoint tolerance.
        def duplicated(starts):
            return starts + starts[:1]

        def flipped(starts):
            first = starts[0]
            return [(-first[0],) + first[1:]] + starts[1:]

        mutate = {"duplicated": duplicated, "flipped": flipped}[mutation]
        checked = 0
        for label, system in _certified_candidates():
            report = solve(system)
            if not report.verdict:
                continue
            with monkeypatch.context() as patch:
                _mutated_first_cell(patch, mutate)
                mutated = solve(system)
            paths = sum(mutated.start_solutions)
            assert paths == sum(report.start_solutions) + (mutation == "duplicated")
            assert mutated.failures, label
            assert len(mutated.solutions) + len(mutated.failures) == paths
            genuine = {s.point for s in report.solutions}
            assert all(s.point in genuine for s in mutated.solutions), label
            checked += 1
        assert checked == 36


class TestPredictor:
    def test_reproduces_a_cubic(self):
        # u(lam) = sum_k c_k lam**k in each coordinate, with its derivative.
        coeffs = np.array([[0.3, -1.2, 0.7, 0.25], [-2.0, 0.5, -0.1, 0.04]])
        powers = np.arange(4)

        def u(lam):
            return coeffs @ lam**powers

        def udot(lam):
            return coeffs[:, 1:] @ (powers[1:] * lam ** powers[:-1])

        lam0, lam = 2.5, 1.75
        prev = (lam0, u(lam0), udot(lam0))
        for step in (1e-3, 0.1, 0.75, 1.75):
            got = tracker._predict(lam, u(lam), udot(lam), prev, step)
            assert got == pytest.approx(u(lam - step), rel=1e-13, abs=1e-14)

    def test_without_previous_point_is_the_euler_step(self):
        u, udot = np.array([0.5, -1.0]), np.array([2.0, 3.0])
        got = tracker._predict(1.5, u, udot, None, 0.25)
        assert np.array_equal(got, u - 0.25 * udot)


def _exact_solve(a, b):
    """``a^-1 b`` of the float 2 x 2 system in exact rationals, with the
    exact inf-norm condition number of ``a``."""
    (a00, a01), (a10, a11) = [[Fraction(v) for v in row] for row in a.tolist()]
    b0, b1 = (Fraction(v) for v in b.tolist())
    det = a00 * a11 - a01 * a10
    x = ((a11 * b0 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det)
    norm = max(abs(a00) + abs(a01), abs(a10) + abs(a11))
    inverse_norm = max(abs(a11) + abs(a01), abs(a10) + abs(a00)) / abs(det)
    return x, norm * inverse_norm


class TestSolve:
    @staticmethod
    def _systems():
        """Seeded 2 x 2 systems: unit scale, entries near 1e+-150 with the
        right-hand side at unit or the same scale, and near-singular ones."""
        rng = np.random.default_rng(2202)

        def spread(shape):
            return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-1, 1, shape)

        for a_scale, b_scale in (
            (1.0, 1.0),
            (1e150, 1.0),
            (1e150, 1e150),
            (1e-150, 1.0),
            (1e-150, 1e-150),
        ):
            for _ in range(50):
                yield a_scale * spread((2, 2)), b_scale * spread(2)
        for gap in (1e-4, 1e-8, 1e-12):
            for _ in range(50):
                rank_one = np.outer(spread(2), spread(2))
                yield rank_one + gap * spread((2, 2)), spread(2)

    def test_forward_error_against_exact_rationals(self):
        # Cramer's rule is forward stable at n = 2 (Higham, *Accuracy and
        # Stability of Numerical Algorithms*, 2002, 1.10.1): the rounding of
        # det and of each numerator is within 2 eps of |a| |a^-1| |b|, which
        # gives about 2.5 eps cond(a) |x|; 8 leaves room for the rest.
        eps = Fraction(np.finfo(float).eps)
        for a, b in self._systems():
            x, cond = _exact_solve(a, b)
            got = tracker._solve(a, b).tolist()
            error = max(abs(Fraction(g) - v) for g, v in zip(got, x))
            assert error <= 8 * cond * eps * max(map(abs, x)), (a, b)

    def test_exactly_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            tracker._solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_read_as_infinite(self, bad):
        for k in range(6):
            a, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 1.0])
            (a.reshape(-1) if k < 4 else b)[k % 4] = bad
            assert tracker._max_norm(tracker._solve(a, b).tolist()) == math.inf

    @pytest.mark.parametrize("n", [1, 3])
    def test_other_sizes_are_lapack_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            a, b = rng.standard_normal((n, n)), rng.standard_normal(n)
            got = tracker._solve(a, b)
            assert got.tobytes() == np.linalg.solve(a, b).tobytes()


class TestTracking:
    def test_quadratic_matches_formula(self):
        system = quadratic_system(1.0, 10.0, 1.0)
        cells, homotopy = _cells_and_homotopy(system)
        paths = []
        for cell in cells.cells:
            for sol in solve_real(binomial_from_cell(cell, system)):
                paths.append(make_path(cell, sol.signs, FORCED_T0))
        solutions = track(homotopy, paths, tol=1e-10)
        got = sorted(s.point[0] for s in solutions)
        ref = quadratic_real_roots(1.0, 10.0, 1.0)
        assert got == pytest.approx(ref, abs=1e-8)
        for s in solutions:
            assert s.residual < 1e-10

    def test_binomial_target_is_trivial(self):
        system = support_system(
            [[[1, 1], [0, 0]], [[0, 2], [0, 0]]],
            [[1.0, -6.0], [1.0, -4.0]],
        )
        cells, homotopy = _cells_and_homotopy(system)
        assert len(cells.cells) == 1
        cell = cells.cells[0]
        starts = solve_real(binomial_from_cell(cell, system))
        assert len(starts) == 2
        paths = [make_path(cell, s.signs, FORCED_T0) for s in starts]
        solutions = track(homotopy, paths)
        assert len(solutions) == 2
        for sol, start in zip(solutions, starts):
            assert sol.point == pytest.approx(orthant_point(start), rel=1e-12)
            assert sol.residual < 1e-12

    @pytest.mark.parametrize("c", [6.0, 6e3, 6e6, 6e9, 6e12])
    def test_binomial_target_steps_do_not_grow_with_scale(self, c):
        # x y = c, y**2 = 4 is its own truncated system, so every path is its
        # truncated branch and only drifts by -normal per unit lam.  Sized off
        # that drift, each path takes the steps 0.1, 0.2, 0.4 and 0.3 of its
        # lam0 at every scale, where sizing by the whole move took 4 to 74.
        # (A solve starts these certified paths at the target, with no step;
        # here they are tracked from t0 = 0.1.)
        system = support_system(
            [[[1, 1], [0, 0]], [[0, 2], [0, 0]]],
            [[1.0, -c], [1.0, -4.0]],
        )
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        starts = solve_real(binomial_from_cell(cell, system))
        paths = [make_path(cell, s.signs, 0.1) for s in starts]
        solutions = track(homotopy, paths)
        assert [p.status for p in paths] == ["converged", "converged"]
        assert len(solutions) == len(starts) == 2
        for sol, start in zip(solutions, starts):
            assert sol.steps == 4
            assert sol.point == pytest.approx(orthant_point(start), rel=1e-12)

    @pytest.mark.parametrize("broken", ["singular", "nan", "nan_last"])
    def test_tangent_failure_fails_the_path(self, monkeypatch, broken):
        # On a binomial target the start lies on its path, so the start
        # correction makes no linear solve and the first one is the tangent.
        system = support_system(
            [[[1, 1], [0, 0]], [[0, 2], [0, 0]]],
            [[1.0, -6.0], [1.0, -4.0]],
        )
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        start = solve_real(binomial_from_cell(cell, system))[0]
        path = make_path(cell, start.signs, 0.1)

        def solve_fails(a, b):
            if broken == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            if broken == "nan":
                return np.full_like(b, np.nan)
            # Python's max would pass over a NaN that is not in first place.
            return np.append(np.zeros(b.size - 1), np.nan)

        monkeypatch.setattr(tracker, "_solve", solve_fails)
        assert track(homotopy, [path]) == []
        assert path.status == "failed"
        assert path.message == f"tangent solve failed at lam={-math.log(0.1):.3e}"

    def test_nan_residual_does_not_converge(self, monkeypatch):
        # max([1e-12, nan]) == 1e-12: a max-norm that passed over the NaN in
        # the second row would read this residual as converged.
        system = support_system(
            [[[1, 1], [0, 0]], [[0, 2], [0, 0]]],
            [[1.0, -6.0], [1.0, -4.0]],
        )
        cells, homotopy = _cells_and_homotopy(system)
        sol = solve_real(binomial_from_cell(cells.cells[0], system))[0]
        weights = term_signs(homotopy, sol.signs)[:, None] * homotopy.weights
        u = np.array(sol.logs)  # a zero of the target, at lam = 0
        ctol = tracker.CORRECTOR_TOL
        res, _, _ = tracker._newton(homotopy, weights, 0.0, u, ctol, 3)
        assert res < ctol
        kernel = _kernels.jac_dlam

        def nan_second_row(*args):
            table = kernel(*args)
            table[1, 0] = np.nan
            return table

        monkeypatch.setattr(_kernels, "jac_dlam", nan_second_row)
        res, _, _ = tracker._newton(homotopy, weights, 0.0, u, ctol, 3)
        assert not res < ctol

    def test_no_sign_crossing_and_determinism(self):
        system = quadratic_system(1.0, 10.0, 1.0)
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, system))[0]
        first = track(homotopy, [make_path(cell, sol.signs, 0.01)])
        second = track(homotopy, [make_path(cell, sol.signs, 0.01)])
        assert first[0].point == second[0].point
        assert first[0].steps == second[0].steps
        assert math.copysign(1.0, first[0].point[0]) == sol.signs[0]

    def test_failures_recorded_per_path(self):
        system = quadratic_system(1.0, 10.0, 1.0)
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, system))[0]
        good = make_path(cell, sol.signs, 0.01)
        bad = make_path(cell, sol.signs, 0.01)
        bad.u = np.array([math.log(1e11)])  # hopeless start, far off the path
        solutions = track(homotopy, [bad, good])
        assert len(solutions) == 1
        assert bad.status in ("failed", "diverged")
        assert good.status == "converged"

    def test_coinciding_endpoints_fail_both_paths(self):
        # Two paths that end on one zero have jumped onto one branch.
        system = quadratic_system(1.0, 10.0, 1.0)
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, system))[0]
        twins = [make_path(cell, sol.signs, 0.01), make_path(cell, sol.signs, 0.01)]
        assert track(homotopy, twins) == []
        for k, path in enumerate(twins):
            assert path.status == "failed"
            assert path.message == f"endpoint coincides with path {1 - k}"
        pair = [
            make_path(c, s.signs, 0.01)
            for c in cells.cells
            for s in solve_real(binomial_from_cell(c, system))
        ]
        assert len(pair) == 2
        assert len(track(homotopy, pair)) == 2
        assert [p.status for p in pair] == ["converged", "converged"]

    def test_coinciding_pairs_match_the_array_form(self):
        # _coinciding reads Python floats; the same test on numpy arrays,
        # row against later rows, must find the same pairs in the same
        # order.  Endpoints repeat in other orthants and within and just
        # beyond DISTINCT_LOG_TOL in log|x|, some of them far beyond the
        # float range in x, where point would read inf or 0.
        rng = np.random.default_rng(26)
        tol = tracker.DISTINCT_LOG_TOL
        pairs = 0
        for _ in range(50):
            base = rng.normal(0, 5, (4, 2)) * rng.choice([1.0, 300.0], (4, 1))
            near = base + rng.choice([0.0, 0.5 * tol, 2.0 * tol], (4, 2))
            orthants = rng.choice([-1, 1], (4, 2))
            flipped = orthants * rng.choice([-1, 1], (4, 2))
            order = rng.permutation(12)
            logs = np.vstack([base, near, base])[order]
            signs = np.vstack([orthants, orthants, flipped])[order]
            want = [
                (a, a + 1 + int(b))
                for a in range(len(logs) - 1)
                for b in np.flatnonzero(
                    (signs[a + 1 :] == signs[a]).all(axis=1)
                    & (abs(logs[a + 1 :] - logs[a]) <= tol).all(axis=1)
                )
            ]
            ends = [
                TrackedSolution((), 0.0, 0, signs=tuple(s), logs=tuple(v))
                for s, v in zip(signs.tolist(), logs.tolist())
            ]
            assert list(tracker._coinciding(ends)) == want
            pairs += len(want)
        assert pairs > 50

    def test_one_kernel_call_per_newton_iterate(self, cubic_conic, monkeypatch):
        # Every kernel call is accounted for: jac_dlam only inside _newton, at
        # most one per iterate plus the last evaluation (max_iters + 1 per
        # call), or inside the fold test _fold, at most FOLD_ITERS + 1 per
        # call.  The tangent and the predictor reuse the table of the
        # accepted iterate and call no kernel, and the endpoint polish of a
        # path that stepped reads its first iterate from the last step's
        # table: one call fewer, and none if that iterate already meets the
        # polish tolerance.  The cubic/conic converges all 6 paths; both
        # paths of 2 - 2x + x**2 end at its fold, so the fold test runs.
        scope = []  # the index of the innermost instrumented call
        calls = []  # the scope at each jac_dlam call
        kernel = _kernels.jac_dlam

        def counted(*args):
            calls.append(scope[-1] if scope else None)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "jac_dlam", counted)
        budgets = []  # (function, kernel-call budget) by call index
        newton, fold = tracker._newton, tracker._fold

        def scoped(name, budget, fn, *args, **kwargs):
            scope.append(len(budgets))
            budgets.append((name, budget))
            try:
                return fn(*args, **kwargs)
            finally:
                scope.pop()

        def scoped_newton(*args, **kwargs):
            given = kwargs.get("table") is not None
            name = "_newton(table)" if given else "_newton"
            budget = (not given, args[5] + 1 - given)
            return scoped(name, budget, newton, *args, **kwargs)

        def scoped_fold(*args):
            return scoped("_fold", (1, tracker.FOLD_ITERS + 1), fold, *args)

        monkeypatch.setattr(tracker, "_newton", scoped_newton)
        monkeypatch.setattr(tracker, "_fold", scoped_fold)
        for system, count, converged in (
            (cubic_conic, 6, 6),
            (quadratic_system(2.0, -2.0, 1.0), 2, 0),
        ):
            cells, homotopy = _cells_and_homotopy(system)
            paths = [
                make_path(cell, s.signs, FORCED_T0)
                for cell in cells.cells
                for s in solve_real(binomial_from_cell(cell, system))
            ]
            assert len(paths) == count
            assert len(track(homotopy, paths)) == converged
        per_call = Counter(calls)
        assert None not in per_call
        for k, (_, (low, high)) in enumerate(budgets):
            assert low <= per_call[k] <= high
        names = Counter(name for name, _ in budgets)
        assert names["_fold"] >= 2
        assert names["_newton(table)"] == 6

    def test_forced_tracking_finds_every_exact_zero(self):
        # A step that jumps onto another branch loses a zero or reaches one
        # twice; every forced path that converges here is one exact zero.
        for system, count in _forced_corpus():
            report = solve(system, SolverConfig(force=True))
            assert len(report.solutions) == count

    def test_held_out_forced_converged_counts(self):
        # Outside the benchmark corpora, each of the 224 held-out forced
        # systems converges exactly its pinned number of paths.  Every path
        # that fails names its fold or failed its start correction: none
        # gives up with "corrector failed after 3 halvings" at a turning
        # point the fold test did not confirm (12 paths did while the fold
        # test ran only at a step's second failure, from its last attempt).
        reports = [
            solve(system, SolverConfig(force=True)) for _, system in held_out_forced()
        ]
        assert tuple(len(r.solutions) for r in reports) == HELD_OUT_CONVERGED
        kinds = Counter(
            f.message.split(" at lam=")[0] for r in reports for f in r.failures
        )
        assert "corrector failed after 3 halvings" not in kinds
        assert set(kinds) <= {"fold", "start point correction failed"}

    def test_forced_corpus_kernel_call_budget(self, monkeypatch):
        # The step correctors' fourth iterate and the fold test's second run
        # cut the corpus's kernel calls by a fifth; see FORCED_CORPUS_CALLS.
        kernel, calls = _kernels.jac_dlam, []

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "jac_dlam", counted)
        for system, _ in _forced_corpus():
            solve(system, SolverConfig(force=True))
        assert len(calls) <= FORCED_CORPUS_CALLS

    def test_forced_corpus_fails_only_at_folds(self):
        # Generator systems 2, 8 and 10 (corpus entries 3, 9 and 11; the
        # track_forced workload's sparse2_02, 08 and 10) each lose both paths
        # where they meet at a fold and turn complex.  Each path names the
        # fold's lam, and the two paths of a pair name the same one.
        failed = {}
        for k, (system, _) in enumerate(_forced_corpus()):
            report = solve(system, SolverConfig(force=True))
            if report.failures:
                failed[k] = report.failures
        assert sorted(failed) == [3, 9, 11]
        for failures in failed.values():
            assert [f.status for f in failures] == ["failed", "failed"]
            lams = [_fold_lam(f.message) for f in failures]
            assert abs(lams[0] - lams[1]) <= 1e-3

    @pytest.mark.parametrize("c0, parent_calls", [(2, 217), (3, 170)])
    def test_quadratic_paths_end_at_their_fold(self, monkeypatch, c0, parent_calls):
        # Under the log|c| lifting c0 - 2x + x**2 deforms to
        # c0 - 2 t**log(c0/2) x + t**log(c0) x**2, whose discriminant vanishes
        # at lam = log c0 / (log c0 - 2 log(c0/2)): 1 for c0 = 2, about
        # 3.8188 for c0 = 3.  Both real roots track into that fold.  Before
        # the fold test the paths halved toward it for 217 and 170 kernel
        # calls.
        fold = math.log(c0) / (math.log(c0) - 2.0 * math.log(c0 / 2.0))
        kernel, calls = _kernels.jac_dlam, []

        def counted(*args):
            calls.append(None)
            return kernel(*args)

        monkeypatch.setattr(_kernels, "jac_dlam", counted)
        report = solve(quadratic_system(c0, -2.0, 1.0), SolverConfig(force=True))
        assert report.solutions == []
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.status == "failed"
            assert _fold_lam(failure.message) == pytest.approx(fold, rel=1e-3)
        assert len(calls) <= parent_calls // 2

    def test_fold_test_confirms_only_a_fold_the_path_comes_from(self):
        # 2 - 2x + t**log(2) x**2 folds at lam = 1 with x = 2, its two real
        # roots existing above lam = 1, where a path comes from.  Reflected
        # about lam = 1.5, h(u, 3 - lam) folds at lam = 2 with its roots below:
        # a path above lam = 2 is on neither, and the fold test declines it.
        system = quadratic_system(2.0, -2.0, 1.0)
        h = make_homotopy(system, log_abs_lifting(system))
        vexp = -h.vexp
        _, _, flipped_weights = _kernels.tables(h.exps, vexp, np.array([0, 3]))
        flipped = dataclasses.replace(
            h, logc=h.logc - 3.0 * h.vexp, vexp=vexp, weights=flipped_weights
        )
        normal = np.zeros(1)
        for homotopy, lam, turn in ((h, 1.2, 1.0), (flipped, 2.2, None)):
            weights = term_signs(homotopy, [1.0])[:, None] * homotopy.weights
            for u in (math.log(2.0) - 0.1, math.log(2.0) + 0.2):
                u = np.array([u])
                table = _kernels.jac_dlam(
                    homotopy.logc,
                    lam * homotopy.vexp,
                    homotopy.exps,
                    homotopy.starts,
                    homotopy.eq,
                    weights,
                    u,
                )
                start = (lam, u, table)
                got = tracker._fold(homotopy, weights, start, lam, u, 0.5, normal)
                if turn is None:
                    assert got is None
                else:
                    assert got == pytest.approx(turn, rel=1e-9)

    def test_step_correctors_stop_only_when_they_cannot_converge(self, monkeypatch):
        # Replays every step corrector of the forced corpus as a plain Newton
        # of CORRECTOR_ITERS iterates.  The contraction abort may end a
        # corrector early, but never one that the plain Newton converges; and
        # it does end some early.
        kernel, evaluations = _kernels.jac_dlam, [0]

        def counted(*args):
            evaluations[0] += 1
            return kernel(*args)

        newton, attempts = tracker._newton, []

        def recording(*args, contract=False, **kwargs):
            before = evaluations[0]
            out = newton(*args, contract=contract, **kwargs)
            if contract:
                h, weights, lam, u, ctol, _ = args
                used = evaluations[0] - before
                attempts.append((h, weights, lam, u, out[0] < ctol, used))
            return out

        monkeypatch.setattr(_kernels, "jac_dlam", counted)
        monkeypatch.setattr(tracker, "_newton", recording)
        for system, _ in _forced_corpus():
            solve(system, SolverConfig(force=True))
        ctol, iters = tracker.CORRECTOR_TOL, tracker.CORRECTOR_ITERS
        cut = 0
        for h, weights, lam, u, converged, used in attempts:
            plain, plain_used = _plain_newton(kernel, h, weights, lam, u, ctol, iters)
            assert converged == plain
            assert used <= plain_used
            cut += used < plain_used
        assert cut > 0

    def test_no_corrector_starts_beyond_the_predicted_move_cap(self, monkeypatch):
        # Replays each path from the recorded corrections, in the frame of its
        # cell, where the truncated branch drifts by -normal per unit lam: a
        # step attempt (a contracting _newton of CORRECTOR_ITERS iterations;
        # no other _newton call contracts) from the accepted point
        # (lam, u) with tangent udot must keep (lam - lam_new) *
        # max|udot + normal| within 0.9 * MAX_LOG_MOVE, halvings included, and
        # an accepted one must move u off its drift by at most MAX_LOG_MOVE.
        # The first attempt after an accepted step of size s spans
        # min(2 s, lam), or sits at that cap.
        calls = []
        newton, track_one = tracker._newton, tracker._track_one

        def recording(*args, contract=False, **kwargs):
            out = newton(*args, contract=contract, **kwargs)
            lam, max_iters = args[2], args[5]
            assert contract == (max_iters == tracker.CORRECTOR_ITERS)
            calls.append((lam, contract, out))
            return out

        def recording_path(h, path, tol):
            calls.append(path.normal)
            return track_one(h, path, tol)

        monkeypatch.setattr(tracker, "_newton", recording)
        monkeypatch.setattr(tracker, "_track_one", recording_path)
        steps = 0
        for system, _ in _forced_corpus():
            report = solve(system, SolverConfig(force=True))
            steps += sum(s.steps for s in report.solutions)
        cap, ctol = tracker.MAX_LOG_MOVE, tracker.CORRECTOR_TOL
        accepted = 0
        last_step = None
        for call in calls:
            if isinstance(call, np.ndarray):
                normal = call  # the next path starts
                continue
            lam, step_attempt, (res, u, table) = call
            if step_attempt:
                span = here_lam - lam
                udot = np.linalg.solve(here_table[:, 1:-1], -here_table[:, -1])
                move = span * float(abs(udot + normal).max())
                assert move <= 0.9 * cap + 1e-9
                if last_step is not None:
                    doubled = min(2.0 * last_step, here_lam)
                    assert abs(span - doubled) <= 1e-12 or abs(move - 0.9 * cap) <= 1e-9
                    last_step = None
                if res >= ctol:
                    continue
                if abs(u - here - span * normal).max() > cap:
                    continue
                accepted += 1
                last_step = span
            else:
                last_step = None
                if lam == 0.0 or res >= ctol:
                    continue  # an endgame, or a start correction that failed
            here_lam, here, here_table = lam, u, table
        assert steps > 0
        assert accepted >= steps

    @pytest.mark.parametrize(
        "coefficients, roots",
        [
            # 10**400 times x**2 + 10x + 1.
            ([10**400, 10**401, 10**400], quadratic_real_roots(1.0, 10.0, 1.0)),
            # Roots 10**-400 and 10**400, beyond the float range themselves.
            (
                [1, -(10**400 + Fraction(1, 10**400)), 1],
                [Fraction(1, 10**400), 10**400],
            ),
        ],
        ids=["scaled", "roots_1e400"],
    )
    def test_exact_coefficients_beyond_float_range(self, coefficients, roots):
        # float(10**400) overflows; the homotopy only needs log|c| and sign(c),
        # and each zero comes back as its signs and log|x|.
        report = solve(support_system([[[0], [1], [2]]], [coefficients]))
        assert report.verdict is True
        assert report.failures == []
        got = sorted((s.signs[0], s.logs[0]) for s in report.solutions)
        want = sorted((1 if r > 0 else -1, log_abs(r)) for r in roots)
        assert [s for s, _ in got] == [s for s, _ in want]
        assert [v for _, v in got] == pytest.approx([v for _, v in want], abs=1e-12)

    def test_certified_seed9_corpus_tracks_every_start(self):
        # The paper's promise at extreme coefficient scale: on a certificate
        # pass every real start tracks to its own real zero.  System 17 once
        # lost path 0 to a divergence bound in x and had a corrector iterate
        # land exactly on x2 = 0; in log coordinates neither can happen.
        #
        # Exact real-zero counts in (R*)^2, computed once with sympy 1.14.
        # f, g are the two equations of ``system`` below as sympy Polys in
        # x, y over QQ, each float coefficient taken exactly, with monomial
        # and integer content divided out (``terms_gcd()[1].primitive()[1]``);
        #     def count(f, g, a, b):  # zeros with a, b != 0, projected to a
        #         r = Poly(resultant(f, g, b), a).sqf_part()
        #         axis = gcd(Poly(f.as_expr().subs(b, 0), a),
        #                    Poly(g.as_expr().subs(b, 0), a)).sqf_part()
        #         strip = lambda p: p.quo(Poly(a, a)) if p.eval(0) == 0 else p
        #         return strip(r).count_roots() - strip(axis).count_roots()
        # and count(f, g, x, y) == count(f, g, y, x) on 11, 17, 30 and 38
        # (system 38 takes about a minute).  Not pinned: system 24 has y
        # only as y**2, so a real root of the x-resultant can carry an
        # imaginary pair (x, +-y); its two projections give 3 and 2.
        #
        # Systems 14 and 19 have starts whose x at the old t0 candidates left
        # the float range; they raised OverflowError while t0 was scored in x.
        exact_counts = {11: 4, 17: 3, 30: 3, 38: 4}
        start_counts = {14: 6, 19: 1}
        rng = np.random.default_rng(9)
        certified, paths = [], 0
        for index in range(40):
            system = random_sparse_system(rng, n=2, min_terms=4, max_terms=6)
            system = _signed_power(system, 8)
            report = solve(system, SolverConfig())
            if not report.verdict:
                continue
            certified.append(index)
            assert report.failures == []
            assert len(report.solutions) == sum(report.start_solutions)
            if index in exact_counts:
                assert len(report.solutions) == exact_counts[index]
            if index in start_counts:
                assert len(report.solutions) == start_counts[index]
            assert all(s.residual < SolverConfig().tol for s in report.solutions)
            points = [np.array(s.point) for s in report.solutions]
            for i, p in enumerate(points):
                for q in points[:i]:
                    assert np.max(np.abs(p - q) / np.maximum(np.abs(p), np.abs(q))) > 1e-6
            paths += len(points)
        assert certified == [11, 14, 17, 19, 24, 30, 38]
        assert paths == 23
