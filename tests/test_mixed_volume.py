"""The cells' volumes add up to the mixed volume (ROADMAP item 15).

For a generic lifting the mixed cells' volumes sum to the mixed volume of
the supports (Bernstein 1975; Huber and Sturmfels 1995), whatever the
lifting and whatever the screens drop.  ``oracles.mixed_volume_2d`` gives it
at n = 2 from integer convex hulls alone, and ``oracles.mixed_volume`` at
any n from the volumes of Minkowski sums, so a screen that drops a true
cell fails here even where no other test looks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import cubic_conic_system, dense_system, dense_system_n, random_sparse_system
from oracles import mixed_volume, mixed_volume_2d
from reference_reports import reference_solves
from realhomotopy import build_cayley, enumerate_mixed_cells, log_abs_lifting, support_system
from test_metamorphic import _substitute, _unimodular
import workloads


def _total_volume(system) -> int:
    return enumerate_mixed_cells(build_cayley(system), log_abs_lifting(system)).total_volume()


class TestOracle:
    """The oracle on mixed volumes known in closed form."""

    def test_dense_supports_give_bezout(self):
        rng = np.random.default_rng(0)
        for d1, d2 in [(1, 1), (2, 1), (3, 2), (4, 4)]:
            assert mixed_volume_2d(dense_system(d1, d2, rng)) == d1 * d2

    def test_parallel_segments_give_zero(self):
        # xy - 2, x^2 y^2 - 4: the zeros form a curve and no cell exists.
        system = support_system([[[0, 0], [1, 1]], [[0, 0], [2, 2]]], [[1, -2], [1, -4]])
        assert mixed_volume_2d(system) == 0

    def test_segments_give_their_determinant(self):
        # Two segments: the mixed volume is |det| of their directions, at
        # any coordinate size.
        big = 10**40
        system = support_system(
            [[[0, 0], [big + 1, big]], [[0, 0], [big, big - 1]]], [[1, -2], [1, -3]]
        )
        assert mixed_volume_2d(system) == 1

    def test_any_n_agrees_in_the_plane(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            system = random_sparse_system(rng, n=2, min_terms=3, max_terms=7)
            assert mixed_volume(system) == mixed_volume_2d(system)

    def test_dense_supports_give_bezout_at_any_n(self):
        rng = np.random.default_rng(0)
        for degrees in [(1, 2, 3), (2, 2, 2), (1, 1, 2, 3)]:
            assert mixed_volume(dense_system_n(degrees, rng)) == math.prod(degrees)
        # Three segments on one plane: their sum is flat.
        flat = [[[0, 0, 0], [1, 0, 0]], [[0, 0, 0], [0, 1, 0]], [[0, 0, 0], [1, 1, 0]]]
        assert mixed_volume(support_system(flat, [[1, -2]] * 3)) == 0


class TestTotalVolume:
    """``total_volume()`` equals the oracle."""

    def test_random_systems(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            system = random_sparse_system(rng, n=2, min_terms=3, max_terms=7)
            assert _total_volume(system) == mixed_volume_2d(system)

    def test_benchmark_corpora(self):
        count = 0
        for family, label, system, _ in reference_solves():
            if family in workloads.WORKLOADS:
                assert _total_volume(system) == mixed_volume_2d(system), label
                count += 1
        assert count == 279

    def test_random_systems_n3(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            system = random_sparse_system(rng, n=3, min_terms=3, max_terms=7)
            assert _total_volume(system) == mixed_volume(system)

    @pytest.mark.parametrize(
        "degrees",
        [(2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 2, 2, 2)],
        ids=lambda d: "-".join(map(str, d)),
    )
    def test_dense_systems(self, degrees):
        system = dense_system_n(degrees, np.random.default_rng(18))
        assert _total_volume(system) == mixed_volume(system) == math.prod(degrees)

    @pytest.mark.parametrize("k", [10**3, 10**5], ids=["K=10^3", "K=10^5"])
    def test_substituted_cubic_conic(self, k):
        system, _ = _substitute(cubic_conic_system(), _unimodular(k))
        cells = enumerate_mixed_cells(build_cayley(system), log_abs_lifting(system))
        assert len(cells.cells) == 6
        assert cells.total_volume() == mixed_volume_2d(system) == 6
