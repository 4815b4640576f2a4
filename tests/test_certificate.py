from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import (
    EXPECTED_CERT_MIN_MARGIN,
    EXPECTED_CERT_VERDICT,
    cell_gale_matrix,
    circuit_rows,
    dyadic,
    entropy_terms,
    quadratic_system,
    random_sparse_system,
)
from oracles import quadratic_real_roots
from reference_reports import reference_solves
from realhomotopy import (
    Certificate,
    CircuitTable,
    Lifting,
    MixedCellSet,
    build_cayley,
    certify,
    certify_system,
    enumerate_mixed_cells,
    log_abs_lifting,
    solve,
    support_system,
)

BENCHMARK_WORKLOADS = ("dense_cells", "track_forced", "certified_scaled")


def _per_row_margins(cells):
    """Each row's margin on the set's lifting, its terms summed in the
    table's column order."""
    w, log_m = cells.lifting.values, math.log(len(cells.lifting))
    return tuple(
        sum(c * w[k] for k, c in coeffs.items())
        - log_m * sum(abs(c) for c in coeffs.values())
        for coeffs, _ in circuit_rows(cells.inequalities)
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

    def test_no_mixed_cell_fails(self):
        empty = CircuitTable(np.zeros((0, 3), np.intp), np.zeros((0, 3), object))
        lifting = Lifting(values=(0.0, 0.0))
        cells = MixedCellSet((), empty, lifting, np.zeros(0))
        cert = certify(cells)
        assert cert == Certificate(margins=(), m=2, cell_count=0)
        assert cert.verdict is False

    def test_binomial_system_passes_vacuously(self):
        cert, cells = certify_system(
            support_system([[[0], [1]]], [[2.0, -3.0]])
        )
        assert cert.verdict is True
        assert cert.margins == ()
        assert len(cells.cells) == cert.cell_count == 1


# xy - 2, x^2 y^2 - c: the supports are dependent, so there is no mixed cell.
# At c = 4 the zeros form the curve xy = 2; at c = 5 there is none.
DEPENDENT_SUPPORTS = [[[1, 1], [0, 0]], [[2, 2], [0, 0]]]


@pytest.mark.parametrize("c", [4, 5])
def test_no_mixed_cell_no_pass(c):
    system = support_system(DEPENDENT_SUPPORTS, [[1, -2], [1, -c]])
    cert, cells = certify_system(system)
    assert cells.cells == () and len(cells.inequalities) == 0
    assert cert == Certificate(margins=(), m=4, cell_count=0)
    assert cert.verdict is False
    report = solve(system)
    assert report.verdict is False
    assert report.solutions == [] and report.start_solutions == []


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


class TestCircuitTable:
    def test_margins_match_per_circuit_formula(self, cubic_conic, rng):
        systems = [cubic_conic]
        systems += [random_sparse_system(rng, n=2) for _ in range(8)]
        systems += [random_sparse_system(rng, n=3, max_terms=4) for _ in range(4)]
        # Rows of 2n + 1 = 9 columns, where numpy's own row sums would add
        # the terms in another order.
        systems += [random_sparse_system(rng, n=4, max_terms=4) for _ in range(3)]
        cases = [(system, log_abs_lifting(system)) for system in systems]
        exact = random_sparse_system(rng, n=2, min_terms=4)
        m = build_cayley(exact).m
        nums = rng.integers(-(10**6), 10**6, size=m).tolist()
        shifts = rng.integers(0, 10, size=m).tolist()
        cases.append((exact, Lifting(values=dyadic(nums, shifts))))
        for system, lifting in cases:
            cells = enumerate_mixed_cells(build_cayley(system), lifting)
            assert cells.inequalities
            # Bit for bit, from the values the enumeration took.
            assert certify(cells).margins == _per_row_margins(cells)

    def test_solve_hands_its_values_to_the_certificate(self):
        # Each benchmark workload's seed-1 corpus, solved as the benchmark
        # solves it.
        solved = 0
        for family, label, system, config in reference_solves():
            if family not in BENCHMARK_WORKLOADS or not label.endswith("@1"):
                continue
            report = solve(system, config)
            cells, table = report.cells, report.cells.inequalities
            assert cells.lifting == log_abs_lifting(system)
            fresh = CircuitTable(table.points, table.coeffs).values(cells.lifting)
            assert cells.values.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError):
                cells.values[:1] = 0.0
            want = _per_row_margins(cells)
            assert report.certificate.margins == certify(cells).margins == want
            solved += 1
        assert solved == 8 + 21 + 64


class TestEntropyBound:
    def test_circuit_row_combinations(self, rng):
        # The cushion that the certificate's log(m) term leaves: on every
        # Gale vector u of m points, |sum u_i log|u_i|| <= |u|_1 log(m) / 2.
        # One cell's circuit rows span the Gale dual (``cell_gale_matrix``).
        for n in (2, 3):
            checked = 0
            while checked < 3:
                system = random_sparse_system(rng, n=n, min_terms=4, max_terms=6)
                dual = cell_gale_matrix(system)
                if dual is None or dual.shape[1] == 0:
                    continue
                checked += 1
                for zeta in rng.normal(size=(200, dual.shape[1])):
                    lhs, bound = entropy_terms(dual @ zeta, len(dual))
                    assert lhs <= bound * (1.0 + 1e-9) + 1e-9
