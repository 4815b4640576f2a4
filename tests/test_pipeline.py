from __future__ import annotations

import math
from fractions import Fraction

import pytest

from helpers import (
    EXPECTED_TRACKED_SOLUTIONS,
    at_scale_systems,
    dense_support,
    held_out_forced,
    quadratic_system,
)
from oracles import log_residual, quadratic_real_roots
from realhomotopy import (
    SolverConfig,
    binomial,
    lattice,
    mixed_cell_count_bound,
    pipeline,
    solve,
    support_system,
)
from realhomotopy.errors import TieDegenerate


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

    def test_tol_below_the_polish_floor(self, cubic_conic):
        # A tol under 1e-14 must still be met: the endpoint polish never
        # stops above the tol its result is judged by.
        report = solve(cubic_conic, SolverConfig(tol=5e-15, force=True))
        assert report.failures == []
        assert len(report.solutions) == 6
        assert all(s.residual < 5e-15 for s in report.solutions)

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

    def test_int_coefficient_beyond_the_float_range(self):
        # A Python int too large for a float lifts like the equal Fraction.
        # The zero of x^3 - 10^-320, about 2.2e-107, is a float although its
        # start point sol * t0**normal is not: paths start in log form.
        reports = [
            solve(support_system([[[0], [3]]], [[-1, c]]))
            for c in (10**320, Fraction(10**320))
        ]
        for report in reports:
            assert report.verdict is True
            assert report.failures == []
            assert [s.point for s in report.solutions] == [
                pytest.approx((10 ** (1 / 3) * 1e-107,), rel=1e-12)
            ]
        assert reports[0].certificate == reports[1].certificate
        assert reports[0].start_solutions == reports[1].start_solutions == [1]
        # The float 1e-320 is subnormal and not exactly 1e-320, so the zero
        # of x^3 - 1e-320 is 2.1544266950e-107, not 10^(-320/3).  And beside
        # the float 1.0, 10^400 enters the binomial ratio exactly.
        for coefficients, zero in (
            ([-1e-320, 1.0], math.exp(math.log(1e-320) / 3)),
            ([1.0, 10**400], -(10 ** (2 / 3)) * 1e-134),
        ):
            report = solve(support_system([[[0], [3]]], [coefficients]))
            assert report.failures == []
            assert [s.point for s in report.solutions] == [
                pytest.approx((zero,), rel=1e-12)
            ]

    def test_degenerate_lifting_names_its_stage(self):
        # All-ones coefficients lift every point to 0, a tie that the cell
        # enumeration refuses; the error carries the stage that raised it.
        support = dense_support(2)
        system = support_system([support, support], [[1] * len(support)] * 2)
        with pytest.raises(TieDegenerate) as exc:
            solve(system)
        assert exc.value.stage == "mixed_cells"


class TestStartStage:
    def test_orthants_only(self, cubic_conic, monkeypatch):
        # The start stage reads each cell's orthants from the parity system
        # alone: it eliminates no exponent matrix (det_adjugate) and never
        # builds or solves a binomial system (binomial_from_cell, solve_real),
        # on forced and on certified solves.
        in_stage, eliminations, orthants = [], [], []

        def counted(fn):
            def wrapper(matrix):
                if in_stage:
                    eliminations.append(matrix)
                return fn(matrix)

            return wrapper

        def unused(*args):
            raise AssertionError("the start stage solved a binomial system")

        real_orthants = pipeline.real_orthants

        def staged(cell, system):
            in_stage.append(True)
            try:
                found = real_orthants(cell, system)
            finally:
                in_stage.pop()
            orthants.extend(found)
            return found

        # mixed_cells eliminates by its own batched pass and imports no
        # det_adjugate.
        for module in (lattice, binomial):
            monkeypatch.setattr(module, "det_adjugate", counted(module.det_adjugate))
        for module in (pipeline, binomial):
            monkeypatch.setattr(module, "solve_real", unused)
            monkeypatch.setattr(module, "binomial_from_cell", unused)
        monkeypatch.setattr(pipeline, "real_orthants", staged)
        forced = SolverConfig(force=True)
        cases = [(cubic_conic, forced)]
        cases += [(system, forced) for _, system in held_out_forced()[:20]]
        cases += [(system, SolverConfig()) for _, system in at_scale_systems()]
        starts = certified = 0
        for system, config in cases:
            orthants.clear()
            report = solve(system, config)
            assert len(orthants) == sum(report.start_solutions)
            starts += len(orthants)
            certified += report.verdict
        assert certified == 25
        assert starts > 100
        assert eliminations == []


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


class TestAtScale:
    """Certified solves whose zeros lie far beyond the float range in x
    (``helpers.at_scale_systems``): every real start gives one zero, returned
    as signs and log|x| and judged by its 50-digit residual."""

    @pytest.fixture(scope="class")
    def reports(self):
        return [(label, system, solve(system)) for label, system in at_scale_systems()]

    def test_certified_solves_return_every_zero(self, reports):
        certified = zeros = beyond = 0
        for label, system, report in reports:
            if not report.verdict:
                continue
            certified += 1
            zeros += len(report.solutions)
            assert report.failures == [], label
            assert len(report.solutions) == sum(report.start_solutions), label
            for k, s in enumerate(report.solutions):
                assert log_residual(system, s.signs, s.logs) < 1e-10, label
                beyond += any(not 0.0 < abs(v) < math.inf for v in s.point)
                for other in report.solutions[:k]:
                    gap = max(abs(p - q) for p, q in zip(s.logs, other.logs))
                    assert s.signs != other.signs or gap > 1e-6, label
        # 8 and 14 of the n = 3 systems at k = 20 and 40, and the three
        # quadratics; 5 zeros at k = 40 and both roots 10**+-400 lie beyond
        # the float range.
        assert (certified, zeros) == (25, 96)
        assert beyond == 7
