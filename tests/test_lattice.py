from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CUBIC_POWERS, CONIC_POWERS
from oracles import bareiss_det, cofactor_adjugate
from realhomotopy import (
    build_cayley,
    log_abs_lifting,
    support_set,
    support_system,
)
from realhomotopy.lattice import (
    _embed,
    _unimodular_row_echelon,
    det_adjugate,
    int_det,
    kernel_basis,
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
        assert config.origin_index == tuple(list(range(10)) + list(range(6)))

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


class TestLifting:
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


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


class TestRowEchelon:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=1,
                max_size=4,
            )
        )
    )
    def test_properties(self, m):
        # kernel_basis's lattice claim rests on U being unimodular.
        h, u, pivots = _unimodular_row_echelon(m)
        rows, cols = len(m), len(m[0])
        assert _matmul(u, m) == h
        assert abs(int_det(u)) == 1
        rank = len(pivots)
        assert pivots == sorted(set(pivots))
        for r, row in enumerate(h):
            if r >= rank:
                assert not any(row)
                continue
            assert row[pivots[r]] != 0
            assert not any(row[: pivots[r]])
        if rows == cols:
            assert abs(int_det(h)) == abs(int_det(m))
            assert (rank == rows) == (int_det(m) != 0)


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
        sol = solve_exact([[2, 0], [1, 3]], [Fraction(4), Fraction(7)])
        assert sol == [Fraction(2), Fraction(5, 3)]

    def test_solve_exact_floats(self):
        sol = solve_exact([[2, 0], [0, 4]], [1.0, 2.0])
        assert sol == pytest.approx([0.5, 0.5])

    def test_kernel_basis_relations(self, rng):
        for _ in range(20):
            rows = int(rng.integers(1, 4))
            cols = int(rng.integers(rows, rows + 4))
            mat = [[int(v) for v in rng.integers(-4, 5, size=cols)] for _ in range(rows)]
            basis, rank = kernel_basis(mat)
            assert len(basis) == cols - rank
            for vec in basis:
                assert all(
                    sum(mat[i][j] * vec[j] for j in range(cols)) == 0
                    for i in range(rows)
                )
