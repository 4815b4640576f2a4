from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import cubic_conic_system, quadratic_system, random_sparse_system
from oracles import quadratic_real_roots
from realhomotopy import (
    SolverConfig,
    build_cayley,
    binomial_from_cell,
    enumerate_mixed_cells,
    log_abs_lifting,
    make_homotopy,
    make_path,
    scaled_residual,
    solve,
    solve_real,
    start_point,
    support_system,
    track,
)
from realhomotopy import _kernels, tracker
from realhomotopy.tracker import select_t0


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


def _forced_corpus():
    rng = np.random.default_rng(3)
    systems = [cubic_conic_system()]
    systems += [
        random_sparse_system(rng, n=2, min_terms=4, max_terms=5) for _ in range(20)
    ]
    return list(zip(systems, FORCED_EXACT_COUNTS))


class TestStartPoint:
    def test_identity_at_t_one(self, cubic_conic):
        cells, _ = _cells_and_homotopy(cubic_conic)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, cubic_conic))[0]
        assert tuple(start_point(cell, sol, 1.0)) == pytest.approx(
            sol.point, rel=1e-15
        )

    def test_residual_decays_with_t0(self, cubic_conic):
        cells, homotopy = _cells_and_homotopy(cubic_conic)
        cell = next(c for c in cells.cells if c.primitive_normal == (-2, -1))
        sol = solve_real(binomial_from_cell(cell, cubic_conic))[0]
        residuals = [
            scaled_residual(homotopy, t0, start_point(cell, sol, t0))
            for t0 in (1e-1, 1e-2, 1e-3)
        ]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] < 1e-4

    def test_linear_univariate_start_is_root(self):
        system = support_system([[[0], [1]]], [[3.0, 2.0]])
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, system))[0]
        assert sol.point[0] == pytest.approx(-1.5, rel=1e-14)
        sols = track(homotopy, [make_path(cell, sol, 0.1)])
        assert len(sols) == 1
        assert sols[0].point[0] == pytest.approx(-1.5, rel=1e-10)


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


class TestTracking:
    def test_quadratic_matches_formula(self):
        system = quadratic_system(1.0, 10.0, 1.0)
        cells, homotopy = _cells_and_homotopy(system)
        paths = []
        for cell in cells.cells:
            for sol in solve_real(binomial_from_cell(cell, system)):
                paths.append(make_path(cell, sol, select_t0(homotopy, cell, [sol])))
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
        t0 = select_t0(homotopy, cell, starts)
        paths = [make_path(cell, s, t0) for s in starts]
        solutions = track(homotopy, paths)
        assert len(solutions) == 2
        for sol, start in zip(solutions, starts):
            assert sol.point == pytest.approx(start.point, rel=1e-12)
            assert sol.residual < 1e-12

    @pytest.mark.parametrize("broken", ["singular", "nan"])
    def test_tangent_failure_fails_the_path(self, monkeypatch, broken):
        # On a binomial target the start lies on its path, so the start
        # correction makes no linear solve and the first one is the tangent.
        system = support_system(
            [[[1, 1], [0, 0]], [[0, 2], [0, 0]]],
            [[1.0, -6.0], [1.0, -4.0]],
        )
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        path = make_path(cell, solve_real(binomial_from_cell(cell, system))[0], 0.1)

        def solve_fails(a, b):
            if broken == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.nan)

        monkeypatch.setattr(tracker.np.linalg, "solve", solve_fails)
        assert track(homotopy, [path]) == []
        assert path.status == "failed"
        assert path.message == f"tangent solve failed at lam={-math.log(0.1):.3e}"

    def test_no_sign_crossing_and_determinism(self):
        system = quadratic_system(1.0, 10.0, 1.0)
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, system))[0]
        first = track(homotopy, [make_path(cell, sol, 0.01)])
        second = track(homotopy, [make_path(cell, sol, 0.01)])
        assert first[0].point == second[0].point
        assert first[0].steps == second[0].steps
        assert math.copysign(1.0, first[0].point[0]) == sol.signs[0]

    def test_failures_recorded_per_path(self):
        system = quadratic_system(1.0, 10.0, 1.0)
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, system))[0]
        good = make_path(cell, sol, 0.01)
        bad = make_path(cell, sol, 0.01)
        bad.x = np.array([1e11])  # hopeless start, far off the path
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
        twins = [make_path(cell, sol, 0.01), make_path(cell, sol, 0.01)]
        assert track(homotopy, twins) == []
        for k, path in enumerate(twins):
            assert path.status == "failed"
            assert path.message == f"endpoint coincides with path {1 - k}"
        pair = [
            make_path(c, s, 0.01)
            for c in cells.cells
            for s in solve_real(binomial_from_cell(c, system))
        ]
        assert len(pair) == 2
        assert len(track(homotopy, pair)) == 2
        assert [p.status for p in pair] == ["converged", "converged"]

    def test_one_kernel_call_per_newton_iterate(self, cubic_conic, monkeypatch):
        # The predictor reuses the Jacobian of the accepted Newton iterate, so
        # a step costs its Newton iterates plus one evaluation, and no more.
        cells, homotopy = _cells_and_homotopy(cubic_conic)
        paths = []
        for cell in cells.cells:
            starts = solve_real(binomial_from_cell(cell, cubic_conic))
            if starts:
                t0 = select_t0(homotopy, cell, starts)
                paths.extend(make_path(cell, s, t0) for s in starts)
        assert len(paths) == 6
        calls = []
        for name in ("h_scale", "jac_dlam"):
            kernel = getattr(_kernels, name)

            def counted(*args, kernel=kernel):
                calls.append(kernel)
                return kernel(*args)

            monkeypatch.setattr(_kernels, name, counted)
        solutions = track(homotopy, paths)
        steps = sum(s.steps for s in solutions)
        assert len(solutions) == 6
        assert len(calls) <= 4 * steps

    def test_forced_tracking_finds_every_exact_zero(self):
        # A step that jumps onto another branch loses a zero or reaches one
        # twice; every forced path that converges here is one exact zero.
        for system, count in _forced_corpus():
            report = solve(system, SolverConfig(force=True))
            assert len(report.solutions) == count

    def test_no_corrector_starts_beyond_the_predicted_move_cap(self, monkeypatch):
        # Replays each path from the recorded corrections: a step attempt
        # (CORRECTOR_ITERS iterations) from the accepted point (lam, u) with
        # tangent udot must keep (lam - lam_new) * max|udot| within
        # 0.9 * MAX_LOG_MOVE, halvings included.  The first attempt after an
        # accepted step of size s spans min(2 s, lam), or sits at that cap.
        calls = []
        newton = tracker._newton

        def recording(h, lam, u, ctol, max_iters):
            out = newton(h, lam, u, ctol, max_iters)
            calls.append((lam, max_iters, out))
            return out

        monkeypatch.setattr(tracker, "_newton", recording)
        steps = 0
        for system, _ in _forced_corpus():
            report = solve(system, SolverConfig(force=True))
            steps += sum(s.steps for s in report.solutions)
        cap, ctol = tracker.MAX_LOG_MOVE, tracker.CORRECTOR_TOL
        accepted = 0
        last_step = None
        for lam, max_iters, (res, u, (jac, dl)) in calls:
            if max_iters == tracker.CORRECTOR_ITERS:
                span = here_lam - lam
                udot = np.linalg.solve(here_jac, -here_dl)
                move = span * float(abs(udot).max())
                assert move <= 0.9 * cap + 1e-9
                if last_step is not None:
                    doubled = min(2.0 * last_step, here_lam)
                    assert abs(span - doubled) <= 1e-12 or abs(move - 0.9 * cap) <= 1e-9
                    last_step = None
                if res >= ctol or abs(u - here).max() > cap:
                    continue
                accepted += 1
                last_step = span
            else:
                last_step = None
                if lam == 0.0 or res >= ctol:
                    continue  # an endgame, or a start correction that failed
            here_lam, here, here_jac, here_dl = lam, u, jac, dl
        assert steps > 0
        assert accepted >= steps

    def test_start_coordinate_underflow_is_a_path_failure(self):
        system = quadratic_system(1.0, 10.0, 1.0)
        cells, homotopy = _cells_and_homotopy(system)
        cell = cells.cells[0]
        sol = solve_real(binomial_from_cell(cell, system))[0]
        bad = make_path(cell, sol, 0.01)
        bad.x = np.array([0.0])  # as a start sol * t0**normal that underflowed
        assert scaled_residual(homotopy, 0.01, bad.x) == math.inf
        assert track(homotopy, [bad]) == []
        assert bad.status == "diverged"

    def test_exact_coefficients_beyond_float_range(self):
        # float(10**400) overflows; the homotopy only needs log|c| and sign(c).
        big = Fraction(10**400)
        report = solve(support_system([[[0], [1], [2]]], [[big, 10 * big, big]]))
        assert report.verdict is True
        assert report.failures == []
        got = sorted(s.point[0] for s in report.solutions)
        assert got == pytest.approx(quadratic_real_roots(1.0, 10.0, 1.0), rel=1e-12)

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
        exact_counts = {11: 4, 17: 3, 30: 3, 38: 4}
        rng = np.random.default_rng(9)
        certified, paths = [], 0
        for index in range(40):
            system = random_sparse_system(rng, n=2, min_terms=4, max_terms=6)
            system = support_system(
                [s.points for s in system.supports],
                [[math.copysign(abs(c) ** 8, c) for c in row] for row in system.coefficients],
            )
            if index in (14, 19):
                # The start point sol * t0**normal still overflows in x.
                with pytest.raises(OverflowError):
                    solve(system, SolverConfig())
                continue
            report = solve(system, SolverConfig())
            if not report.verdict:
                continue
            certified.append(index)
            assert report.failures == []
            assert len(report.solutions) == sum(report.start_solutions)
            if index in exact_counts:
                assert len(report.solutions) == exact_counts[index]
            assert all(s.residual < SolverConfig().tol for s in report.solutions)
            points = [np.array(s.point) for s in report.solutions]
            for i, p in enumerate(points):
                for q in points[:i]:
                    assert np.max(np.abs(p - q) / np.maximum(np.abs(p), np.abs(q))) > 1e-6
            paths += len(points)
        assert certified == [11, 17, 24, 30, 38]
        assert paths == 16
