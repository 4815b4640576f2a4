from __future__ import annotations

import pytest

from helpers import (
    EXPECTED_TRACKED_SOLUTIONS,
    quadratic_system,
)
from oracles import quadratic_real_roots
from realhomotopy import SolverConfig, mixed_cell_count_bound, solve, support_system


def _match(points, expected, tol):
    assert len(points) == len(expected)
    for e in expected:
        err = min(max(abs(a - b) for a, b in zip(p, e)) for p in points)
        assert err < tol, f"no tracked point within {tol} of {e}"


class TestFullSolve:
    def test_cubic_conic_forced(self, cubic_conic):
        report = solve(cubic_conic, SolverConfig(force=True))
        assert len(report.cells.cells) == 6
        assert report.start_solutions == [1] * 6
        assert len(report.solutions) == 6
        assert report.failures == []
        assert report.uncertified is True
        _match([s.point for s in report.solutions], EXPECTED_TRACKED_SOLUTIONS, 1e-4)
        assert set(report.timings) == {
            "initialization",
            "mixed_cells",
            "certificate",
            "tracking",
        }

    def test_certificate_failure_terminates(self):
        report = solve(quadratic_system(1.0, 3.0, 1.0))
        assert report.verdict is False
        assert report.solutions == []
        assert report.uncertified is False
        assert len(report.certificate.margins) == 2
        assert len(report.cells.cells) == 2

    def test_force_tracks_uncertified(self):
        report = solve(quadratic_system(1.0, 3.0, 1.0), SolverConfig(force=True))
        assert report.uncertified is True
        got = sorted(s.point[0] for s in report.solutions)
        ref = sorted(quadratic_real_roots(1.0, 3.0, 1.0))
        assert got == pytest.approx(ref, abs=1e-8)

    def test_certified_quadratic(self):
        report = solve(quadratic_system(1.0, 10.0, 1.0))
        assert report.verdict is True
        assert report.uncertified is False
        got = sorted(s.point[0] for s in report.solutions)
        assert got == pytest.approx(quadratic_real_roots(1.0, 10.0, 1.0), abs=1e-8)

    def test_binomial_vacuous_pass(self):
        system = support_system(
            [[[1, 0], [0, 1]], [[1, 1], [0, 0]]],
            [[1.0, -2.0], [1.0, -8.0]],
        )
        report = solve(system)
        assert report.verdict is True
        assert report.certificate.margins == ()
        points = sorted(s.point for s in report.solutions)
        assert len(points) == 2
        assert points[0] == pytest.approx((-4.0, -2.0), rel=1e-12)
        assert points[1] == pytest.approx((4.0, 2.0), rel=1e-12)
        for s in report.solutions:
            assert s.residual < 1e-12


class TestStability:
    def test_small_noise_preserves_structure(self, cubic_conic, rng):
        base = solve(cubic_conic, SolverConfig(force=True))
        noisy_coeffs = [
            [float(c) * (1.0 + 1e-9 * float(rng.uniform(-1, 1))) for c in row]
            for row in cubic_conic.coefficients
        ]
        noisy = support_system(
            [s.points for s in cubic_conic.supports], noisy_coeffs
        )
        report = solve(noisy, SolverConfig(force=True))
        assert len(report.cells.cells) == len(base.cells.cells)
        assert [c.edges for c in report.cells.cells] == [
            c.edges for c in base.cells.cells
        ]
        assert len(report.solutions) == len(base.solutions)

    def test_solution_count_below_fewnomial_bound(self, cubic_conic):
        report = solve(cubic_conic, SolverConfig(force=True))
        t = max(len(s) for s in cubic_conic.supports)
        assert len(report.solutions) <= mixed_cell_count_bound(2, t)
