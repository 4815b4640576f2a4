from __future__ import annotations

import math

import pytest

from helpers import (
    EXPECTED_CERT_MIN_MARGIN,
    EXPECTED_CERT_VERDICT,
    quadratic_system,
)
from oracles import quadratic_real_roots
from realhomotopy import (
    Certificate,
    Lifting,
    certify,
    certify_system,
    support_system,
)


class TestQuadraticFamily:
    def test_pass_margins_match_formula(self):
        cert, cells = certify_system(quadratic_system(1.0, 10.0, 1.0))
        # Two cells, each excluding the opposite endpoint via the same circuit.
        assert len(cert.margins) == 2
        expected = 2 * math.log(10.0) - math.log(3.0) * 4
        for margin in cert.margins:
            assert margin == pytest.approx(expected, rel=1e-12)
        assert cert.verdict is True
        assert cert.m == 3

    def test_fail_is_inconclusive(self):
        cert, _ = certify_system(quadratic_system(1.0, 3.0, 1.0))
        assert cert.verdict is False
        assert cert.min_margin() == pytest.approx(-math.log(9.0), rel=1e-12)
        # The system still has two real roots: the test is sufficient only.
        assert len(quadratic_real_roots(1.0, 3.0, 1.0)) == 2

    def test_threshold_is_81(self):
        for c1 in [2.0, 5.0, 8.9, 9.1, 12.0, 40.0]:
            cert, _ = certify_system(quadratic_system(1.0, c1, 1.0))
            assert cert.verdict is (c1 * c1 > 81.0)


class TestCertifyProperties:
    def test_scaling_monotonicity(self):
        base = quadratic_system(1.0, 10.0, 1.0)
        cert0, _ = certify_system(base)
        assert cert0.verdict
        for s in (1, 2, 3, 7):
            scaled = support_system(
                [[[0], [1], [2]]],
                [[1.0, 10.0**s, 1.0]],
            )
            cert, _ = certify_system(scaled)
            assert cert.verdict
            assert min(cert.margins) >= min(cert0.margins) - 1e-12

    def test_margins_ignore_coefficient_signs(self):
        plus, _ = certify_system(quadratic_system(1.0, 10.0, 1.0))
        minus, _ = certify_system(quadratic_system(-1.0, 10.0, -1.0))
        assert plus.margins == minus.margins

    def test_determinism(self):
        a, _ = certify_system(quadratic_system(1.0, 10.0, 1.0))
        b, _ = certify_system(quadratic_system(1.0, 10.0, 1.0))
        assert a.margins == b.margins

    def test_empty_inequalities_pass_vacuously(self):
        cert = certify(Lifting(values=(0.0, 0.0)), [], 2)
        assert cert == Certificate(margins=(), verdict=True, m=2)

    def test_binomial_system_passes_vacuously(self):
        cert, cells = certify_system(
            support_system([[[0], [1]]], [[2.0, -3.0]])
        )
        assert cert.verdict is True
        assert cert.margins == ()
        assert len(cells.cells) == 1


class TestCubicConicRegression:
    def test_verdict_and_min_margin(self, cubic_conic):
        cert, cells = certify_system(cubic_conic)
        assert cert.verdict is EXPECTED_CERT_VERDICT
        assert len(cert.margins) == len(cells.inequalities) == 72
        assert cert.min_margin() == pytest.approx(
            EXPECTED_CERT_MIN_MARGIN, rel=1e-9
        )

    def test_scaled_powers_flip_verdict(self, cubic_conic):
        # Raising coefficient magnitudes to a high power scales every margin's
        # positive part; deep enough in the cone the certificate accepts.
        from fractions import Fraction

        from helpers import CONIC_POWERS, CONIC_SIGNS, CONIC_SUPPORT
        from helpers import CUBIC_POWERS, CUBIC_SIGNS, CUBIC_SUPPORT

        base = Fraction(9, 20) ** 20
        f = [s * base**p for s, p in zip(CUBIC_SIGNS, CUBIC_POWERS)]
        g = [s * base**p for s, p in zip(CONIC_SIGNS, CONIC_POWERS)]
        system = support_system([CUBIC_SUPPORT, CONIC_SUPPORT], [f, g])
        cert, cells = certify_system(system)
        assert len(cells.cells) == 6
        assert cert.verdict is True
