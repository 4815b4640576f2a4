from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import CUBIC_POWERS, CONIC_POWERS
from oracles import bareiss_det, cofactor_adjugate
from realhomotopy import (
    Lifting,
    build_cayley,
    log_abs_lifting,
    support_set,
    support_system,
)
from realhomotopy.lattice import (
    _embed,
    apply_adjugate,
    det_adjugate,
    int_det,
    log_abs,
    solve_exact,
)


class TestCayley:
    def test_cubic_conic_embedding(self, cubic_conic):
        config = build_cayley(cubic_conic)
        assert config.m == 16
        assert config.n == 2
        assert all(len(p) == 3 for p in config.points)
        # Block tags: first support gets 0, second gets 1.
        assert [p[2] for p in config.points] == [0] * 10 + [1] * 6
        assert config.block == tuple([0] * 10 + [1] * 6)

    def test_single_support_is_identity(self):
        system = support_system([[[0], [1], [3]]], [[1.0, 2.0, -1.0]])
        config = build_cayley(system)
        assert config.points == ((0,), (1,), (3,))

    def test_two_blocks_dimension_one(self):
        # Raw embedding, independent of the square-system wrapper.
        points = _embed([[(0,), (1,)], [(0,), (2,)]])
        assert points == [(0, 0), (1, 0), (0, 1), (2, 1)]

    def test_roundtrip_recovers_supports(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            supports = []
            for _ in range(n):
                k = int(rng.integers(2, 5))
                pts = set()
                while len(pts) < k:
                    pts.add(tuple(int(v) for v in rng.integers(-3, 4, size=n)))
                supports.append(sorted(pts))
            coeffs = [[1.0] * len(s) for s in supports]
            system = support_system(supports, coeffs)
            config = build_cayley(system)
            for i, sup in enumerate(system.supports):
                got = [
                    config.base_point(k) for k in config.block_indices(i)
                ]
                assert got == list(sup.points)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            support_system([[[0, 0], [1, 0]]], [[1.0, 1.0]])

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            support_set([[0], [0]])

    def test_rejects_boolean_exponents(self):
        # True == 1, so only the type tells a bool from an exponent.
        with pytest.raises(ValueError, match="exponents must be integers"):
            support_set([[True], [False]])


class TestLifting:
    @pytest.mark.parametrize(
        "value",
        [1, Fraction(1, 2), True, math.nan, math.inf, -math.inf],
        ids=["int", "fraction", "bool", "nan", "inf", "-inf"],
    )
    def test_rejects_what_is_not_a_finite_float(self, value):
        with pytest.raises(ValueError, match="finite floats"):
            Lifting(values=(0.5, value))

    def test_accepts_numpy_floats(self):
        values = tuple(np.array([0.5, -2.0]))
        assert isinstance(values[0], np.float64)
        assert Lifting(values=values).values == (0.5, -2.0)

    def test_unit_coefficient_lifts_to_zero(self):
        system = support_system([[[0], [1]]], [[1.0, -math.e]])
        lifting = log_abs_lifting(system)
        assert lifting.values[0] == 0.0
        assert lifting.values[1] == pytest.approx(1.0, abs=1e-15)

    def test_cubic_conic_lifting_is_scaled_powers(self, cubic_conic):
        lifting = log_abs_lifting(cubic_conic)
        scale = math.log(0.45)
        expected = [p * scale for p in CUBIC_POWERS + CONIC_POWERS]
        assert lifting.values == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            support_system([[[0], [1]]], [[0.0, 1.0]])

    def test_block_scaling_shifts_by_constant(self, cubic_conic):
        base = log_abs_lifting(cubic_conic).values
        scaled = support_system(
            [s.points for s in cubic_conic.supports],
            [
                [c * 7 for c in cubic_conic.coefficients[0]],
                list(cubic_conic.coefficients[1]),
            ],
        )
        shifted = log_abs_lifting(scaled).values
        deltas = [a - b for a, b in zip(shifted, base)]
        assert deltas[:10] == pytest.approx([math.log(7)] * 10, rel=1e-12)
        assert deltas[10:] == pytest.approx([0.0] * 6, abs=1e-15)

    def test_int_beyond_the_float_range(self):
        assert log_abs(10**320) == pytest.approx(320 * math.log(10))
        assert log_abs(-(10**320)) == log_abs(Fraction(10**320))

    def test_int_in_the_float_range_rounds_as_float(self):
        for value in [3, -7, 2**53 + 1, 10**300, -(2**1023)]:
            assert log_abs(value) == math.log(abs(float(value)))


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


class TestExactLinearAlgebra:
    def test_adjugate_identity(self):
        d = [[3, 1], [4, 2]]
        det, adj = det_adjugate(d)
        assert det == int_det(d) == 2
        assert _matmul(adj, d) == [[det, 0], [0, det]]

    def test_zero_pivot_and_singular(self):
        # A zero leading entry forces a row swap, which flips the sign.
        assert det_adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
        assert det_adjugate([[0, 2], [0, 3]]) == (0, None)
        assert det_adjugate([[1, 2], [2, 4]]) == (0, None)
        assert det_adjugate([[5]]) == (5, [[1]])

    def test_det_adjugate_matches_oracle(self, rng):
        # n = 1..7, entries up to 2^40.  Half the matrices are sparse, so zero
        # pivots force row swaps (and many are singular); every fifth has a
        # row replaced by a combination of two others, so it is singular.
        bound = 2**40
        singular = 0
        swapped = 0
        for trial in range(3000):
            n = 1 + trial % 7
            mat = [[int(v) for v in rng.integers(-bound, bound + 1, size=n)] for _ in range(n)]
            if trial % 2:
                mat = [[v if rng.random() < 0.35 else 0 for v in row] for row in mat]
            if trial % 5 == 0 and n >= 3:
                a, b = int(rng.integers(1, 4)), int(rng.integers(-3, 4))
                mat[-1] = [a * x + b * y for x, y in zip(mat[0], mat[1])]
            swapped += mat[0][0] == 0
            det, adj = det_adjugate(mat)
            assert det == bareiss_det(mat)
            if det == 0:
                singular += 1
                assert adj is None
                continue
            assert adj == cofactor_adjugate(mat)
            identity = [[det * (i == j) for j in range(n)] for i in range(n)]
            assert _matmul(adj, mat) == identity
            assert _matmul(mat, adj) == identity
        assert singular > 300 and swapped > 300

    def test_solve_exact_fractions(self):
        # Each entry is the exact rational solution rounded once.
        sol = solve_exact([[2, 0], [1, 3]], [4.0, 7.0])
        assert sol == [float(Fraction(2)), float(Fraction(5, 3))]

    def test_apply_adjugate_rounds_by_running_sums(self, rng):
        # Each entry is the running sum from 0.0 of its products in column
        # order, divided once: 1e16 + 1.0 rounds back to 1e16, so the row
        # [1, 1, 1] reads 0.0 where a compensated sum, the builtin ``sum``'s
        # from Python 3.12 on, reads 1.0.  A leading -0.0 product adds to
        # +0.0.  ``mixed_cells``' batched gammas round by the same rule.
        assert apply_adjugate(1, [[1, 1, 1]], [1e16, 1.0, -1e16]) == [0.0]
        (zero,) = apply_adjugate(1, [[1]], [-0.0])
        assert math.copysign(1.0, zero) == 1.0
        # From 9 columns on numpy's own sum adds pairwise: each + 1.0 after
        # 1e16 rounds back to 1e16 in the running sum, while numpy's sum
        # of the same row reads 1e16 + 8.
        row = [1e16] + [1.0] * 8
        assert np.array([row]).sum(axis=-1).tolist() == [1e16 + 8]
        assert apply_adjugate(1, [[1] * 9], row) == [1e16]
        for k in range(600):
            # Every third system has 9 to 16 columns, the rest 1 to 4.
            n = int(rng.integers(9, 17) if k % 3 == 0 else rng.integers(1, 5))
            adj = [[int(v) for v in rng.integers(-(10**6), 10**6, size=n)] for _ in range(n)]
            scales = 10.0 ** rng.integers(-4, 5, size=n)
            rhs = [float(v) for v in rng.uniform(0, 50, size=n) * scales]
            det = int(rng.integers(1, 10**4))
            want = []
            for row in adj:
                acc = 0.0
                for a, x in zip(row, rhs):
                    acc = acc + a * x
                want.append((acc / det).hex())
            assert [v.hex() for v in apply_adjugate(det, adj, rhs)] == want

    def test_solve_exact_floats(self):
        sol = solve_exact([[2, 0], [0, 4]], [1.0, 2.0])
        assert sol == pytest.approx([0.5, 0.5])
