from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import KNOWN_CELL_EDGES_1BASED
from oracles import grid_binomial_solutions
from realhomotopy import (
    BinomialSystem,
    SingularExponentMatrix,
    binomial_from_cell,
    build_cayley,
    enumerate_mixed_cells,
    log_abs_lifting,
    solve_real,
    support_system,
)


def _residual(bsys: BinomialSystem, point) -> float:
    worst = 0.0
    for row, r in zip(bsys.exponents, bsys.rhs):
        val = 1.0
        for e, x in zip(row, point):
            val *= float(x) ** e
        worst = max(worst, abs(val - float(r)) / max(1.0, abs(float(r))))
    return worst


def _check_against_grid(rng, n: int, trials: int) -> list[list[list[int]]]:
    """Compare ``solve_real`` with the grid oracle on random n x n exponent
    matrices with entries in -3..3, 1 <= |det| <= 9 and random-sign
    right-hand sides; returns the matrices checked."""
    checked = []
    for _ in range(trials):
        d = rng.integers(-3, 4, size=(n, n))
        det = round(float(np.linalg.det(d)))
        if not 1 <= abs(det) <= 9:
            continue
        rhs = np.array(
            [
                float(s * np.exp(rng.uniform(-2, 2)))
                for s in rng.choice([-1.0, 1.0], n)
            ]
        )
        bsys = BinomialSystem(
            exponents=tuple(tuple(int(v) for v in row) for row in d),
            rhs=tuple(rhs),
        )
        sols = solve_real(bsys)
        assert [s.signs for s in sols] == sorted(s.signs for s in sols)
        ours = sorted(s.point for s in sols)
        ref = sorted(tuple(x) for x in grid_binomial_solutions(d, rhs))
        assert len(ours) == len(ref), (d.tolist(), rhs.tolist())
        for a, b in zip(ours, ref):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)
        checked.append(d.tolist())
    return checked


def _gf2_rank(d) -> int:
    # Brute force over {0,1}^n: the kernel of D mod 2 has 2**(n - rank) vectors.
    n = len(d)
    kernel = sum(
        all(sum(e * b for e, b in zip(row, bits)) % 2 == 0 for row in d)
        for bits in itertools.product((0, 1), repeat=n)
    )
    return n - (kernel.bit_length() - 1)


class TestFromCell:
    def test_cubic_conic_first_cell(self, cubic_conic):
        config = build_cayley(cubic_conic)
        cells = enumerate_mixed_cells(config, log_abs_lifting(cubic_conic))
        cell = next(
            c
            for c in cells.cells
            if tuple((p + 1, q + 1) for p, q in c.edges) == KNOWN_CELL_EDGES_1BASED
        )
        bsys = binomial_from_cell(cell, cubic_conic)
        # Exact rational data in, exact ratios out.
        assert bsys.rhs == (Fraction(20, 9), Fraction(400, 81))
        sols = solve_real(bsys)
        assert len(sols) == 1
        assert sols[0].point == pytest.approx(
            (4.938271604938272, 2.2222222222222223), rel=1e-12
        )

    def test_identity_exponents_return_rhs(self):
        system = support_system(
            [[[0, 0], [1, 0]], [[0, 0], [0, 1]]],
            [[6.0, -2.0], [6.0, -3.0]],
        )
        config = build_cayley(system)
        cells = enumerate_mixed_cells(config, log_abs_lifting(system))
        assert len(cells.cells) == 1
        bsys = binomial_from_cell(cells.cells[0], system)
        sols = solve_real(bsys)
        assert len(sols) == 1
        assert sorted(map(abs, sols[0].point)) == pytest.approx([2.0, 3.0])
        assert _residual(bsys, sols[0].point) < 1e-12

    def test_edge_flip_inverts_rhs(self):
        base = BinomialSystem(exponents=((2, 1), (0, 3)), rhs=(5.0, 2.0))
        flipped = BinomialSystem(
            exponents=((-2, -1), (0, 3)), rhs=(1.0 / 5.0, 2.0)
        )
        a = solve_real(base)
        b = solve_real(flipped)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.point == pytest.approx(y.point, rel=1e-12)


class TestSolveReal:
    def test_even_power_pair(self):
        sols = solve_real(BinomialSystem(exponents=((2,),), rhs=(4.0,)))
        assert [s.point[0] for s in sols] == pytest.approx([-2.0, 2.0])

    def test_even_power_negative_rhs_empty(self):
        assert solve_real(BinomialSystem(exponents=((2,),), rhs=(-4.0,))) == []

    def test_triangular_reference(self):
        sols = solve_real(
            BinomialSystem(exponents=((1, 1), (0, 2)), rhs=(6.0, 4.0))
        )
        points = [s.point for s in sols]
        assert len(points) == 2
        assert points[0] == pytest.approx((-3.0, -2.0), rel=1e-12)
        assert points[1] == pytest.approx((3.0, 2.0), rel=1e-12)

    def test_shape_rejected(self):
        with pytest.raises(ValueError):
            BinomialSystem(exponents=((1, 0, 2), (0, 1, 1)), rhs=(1.0, 2.0))
        with pytest.raises(ValueError):
            BinomialSystem(exponents=((1, 0), (0, 1)), rhs=(1.0,))

    def test_singular_rejected(self):
        with pytest.raises(SingularExponentMatrix):
            solve_real(BinomialSystem(exponents=((1, 1), (2, 2)), rhs=(1.0, 2.0)))

    def test_solution_count_and_order(self, rng):
        for _ in range(50):
            d = rng.integers(-3, 4, size=(2, 2))
            if abs(round(float(np.linalg.det(d)))) < 1:
                continue
            rhs = tuple(
                float(s * np.exp(rng.uniform(-2, 2)))
                for s in rng.choice([-1.0, 1.0], 2)
            )
            bsys = BinomialSystem(
                exponents=tuple(tuple(int(v) for v in row) for row in d), rhs=rhs
            )
            sols = solve_real(bsys)
            # Count is 0 or a power of two, capped at 2^n.
            assert len(sols) in (0, 1, 2, 4)
            assert len({s.signs for s in sols}) == len(sols)
            assert sorted(sols, key=lambda s: (s.signs, s.point)) == sols
            for s in sols:
                assert _residual(bsys, s.point) < 1e-10

    def test_unimodular_invariance(self, rng):
        bsys = BinomialSystem(exponents=((2, 1), (1, 1)), rhs=(3.0, -2.0))
        base = solve_real(bsys)
        # Row op: add twice row 0 to row 1, transform rhs monomially.
        new_exp = ((2, 1), (1 + 4, 1 + 2))
        new_rhs = (3.0, -2.0 * 3.0**2)
        other = solve_real(BinomialSystem(exponents=new_exp, rhs=new_rhs))
        assert len(base) == len(other)
        for x, y in zip(base, other):
            assert x.point == pytest.approx(y.point, rel=1e-10)

    def test_matches_grid_oracle_sample(self, rng):
        assert len(_check_against_grid(rng, 2, 40)) > 20


class TestParity:
    def test_matches_grid_oracle_3x3(self, rng):
        checked = _check_against_grid(rng, 3, 120)
        assert len(checked) > 40
        assert {1, 2, 3} <= {_gf2_rank(d) for d in checked}

    def test_structured_n24_rank21(self):
        # D = U @ E with U unimodular and E diagonal with three even entries,
        # so D mod 2 has rank 21 and its kernel is spanned by the unit vectors
        # at the even positions: the solutions of x**D = x_star**D are x_star
        # with any subset of those three coordinates negated.
        n = 24
        local = np.random.default_rng(24)
        even = (3, 11, 20)
        diag = [2 if j in even else int(local.choice([1, 3, -1])) for j in range(n)]
        eye = np.eye(n, dtype=np.int64)
        lower = eye + np.tril(local.integers(0, 2, (n, n)), -1)
        upper = eye + np.triu(local.integers(0, 2, (n, n)), 1)
        u = [[int(v) for v in row] for row in lower @ upper]
        d = tuple(tuple(u[i][j] * diag[j] for j in range(n)) for i in range(n))
        powers = [int(k) for k in local.integers(-2, 3, size=n)]
        star_signs = [int(s) for s in local.choice([-1, 1], size=n)]
        rhs = []
        for row in d:
            sign = math.prod(s for s, e in zip(star_signs, row) if e % 2)
            rhs.append(sign * Fraction(2) ** sum(e * k for e, k in zip(row, powers)))
        sols = solve_real(BinomialSystem(exponents=d, rhs=tuple(rhs)))
        expected = sorted(
            tuple(-s if j in flipped else s for j, s in enumerate(star_signs))
            for r in range(4)
            for flipped in itertools.combinations(even, r)
        )
        assert [s.signs for s in sols] == expected
        magnitudes = [2.0**k for k in powers]
        for sol in sols:
            assert [abs(v) for v in sol.point] == pytest.approx(magnitudes, rel=1e-12)
        # Negating the right-hand sides along the column of U at an even
        # position leaves the image of D mod 2: no real solution.
        p = even[0]
        flipped_rhs = tuple(-r if u[i][p] % 2 else r for i, r in enumerate(rhs))
        assert solve_real(BinomialSystem(exponents=d, rhs=flipped_rhs)) == []

    def test_random_n30_log_magnitudes(self):
        # A random 30x30 D has a determinant near 1e20, and a unimodular
        # triangular reduction of it has entries that large, which wipes out
        # float log-magnitudes carried through it.  They must come out to
        # rounding, as numpy's float solve of D @ log|x| = log|r| gives them.
        local = np.random.default_rng(1)
        while True:
            d = local.integers(-2, 3, size=(30, 30))
            if abs(np.linalg.det(d)) > 0.5:
                break
        rhs = np.exp(local.uniform(-1, 1, size=30))
        sols = solve_real(
            BinomialSystem(
                exponents=tuple(tuple(int(v) for v in row) for row in d),
                rhs=tuple(float(r) for r in rhs),
            )
        )
        # A positive right-hand side always admits the all-plus sign vector.
        assert sols and sols[-1].signs == (1,) * 30
        logs = np.linalg.solve(d.astype(float), np.log(rhs))
        for sol in sols:
            assert np.log(np.abs(sol.point)) == pytest.approx(logs, abs=1e-12)
