from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import random_sparse_system
from realhomotopy import (
    DegenerateConfiguration,
    build_cayley,
    gale_dual,
    support_system,
)


def _homogenized(config):
    dim = 2 * config.n - 1
    rows = [[p[r] for p in config.points] for r in range(dim)]
    rows.append([1] * config.m)
    return np.array(rows)


class TestGaleDual:
    def test_univariate_three_points(self):
        system = support_system([[[0], [1], [2]]], [[1.0, 1.0, 1.0]])
        dual = gale_dual(build_cayley(system))
        assert dual.m == 3
        assert dual.codim == 1
        column = np.array([row[0] for row in dual.rows])
        # Unique kernel direction up to sign.
        assert tuple(abs(v) for v in column) == (1, 2, 1)
        assert column[0] == column[2]
        assert column.sum() == 0

    def test_codimension_zero(self):
        system = support_system([[[0], [1]]], [[1.0, 1.0]])
        dual = gale_dual(build_cayley(system))
        assert dual.m == 2
        assert dual.codim == 0

    def test_cubic_conic_shape_and_relations(self, cubic_conic):
        config = build_cayley(cubic_conic)
        dual = gale_dual(config)
        assert dual.m == 16
        assert dual.codim == 12
        b = np.array([list(r) for r in dual.rows])
        assert np.all(_homogenized(config) @ b == 0)
        assert np.all(b.sum(axis=0) == 0)

    def test_random_relations(self, rng):
        for _ in range(10):
            system = random_sparse_system(rng)
            config = build_cayley(system)
            dual = gale_dual(config)
            b = np.array([list(r) for r in dual.rows]).reshape(config.m, -1)
            assert b.shape[1] == config.m - 2 * config.n
            if b.shape[1]:
                assert np.all(_homogenized(config) @ b == 0)
                assert np.all(b.sum(axis=0) == 0)

    def test_degenerate_configuration(self):
        system = support_system(
            [[[0, 0], [1, 0]], [[0, 0], [2, 0]]],
            [[1.0, 1.0], [1.0, 1.0]],
        )
        with pytest.raises(DegenerateConfiguration):
            gale_dual(build_cayley(system))


class TestContourMap:
    def test_entropy_bound(self, rng):
        for _ in range(5):
            system = random_sparse_system(rng, min_terms=4, max_terms=6)
            config = build_cayley(system)
            dual = gale_dual(config)
            if dual.codim == 0:
                continue
            b = np.array([list(r) for r in dual.rows])
            log_m = math.log(dual.m)
            for _ in range(200):
                zeta = rng.normal(size=dual.codim)
                u = b @ zeta
                if np.any(np.abs(u) < 1e-9):
                    continue
                lhs = abs(float(np.sum(u * np.log(np.abs(u)))))
                bound = 0.5 * float(np.sum(np.abs(u))) * log_m
                assert lhs <= bound * (1.0 + 1e-9) + 1e-9
