from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import quadratic_system, random_sparse_system
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
from realhomotopy import _kernels
from realhomotopy.tracker import select_t0


def _cells_and_homotopy(system):
    config = build_cayley(system)
    lifting = log_abs_lifting(system)
    cells = enumerate_mixed_cells(config, lifting)
    return cells, make_homotopy(system, lifting)


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
        assert len(calls) <= 5 * steps

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
            assert all(s.residual < SolverConfig().tol for s in report.solutions)
            points = [np.array(s.point) for s in report.solutions]
            for i, p in enumerate(points):
                for q in points[:i]:
                    assert np.max(np.abs(p - q) / np.maximum(np.abs(p), np.abs(q))) > 1e-6
            paths += len(points)
        assert certified == [11, 17, 24, 30, 38]
        assert paths == 16
