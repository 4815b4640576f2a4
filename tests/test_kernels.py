from __future__ import annotations

import numpy as np

from realhomotopy._kernels import h_scale, jac_dlam
from oracles import finite_difference_jacobian, loop_h_scale, loop_jac_dlam


def _random_flat_system(rng, n_eq=2, n_var=2, terms=6):
    coeffs = rng.normal(size=n_eq * terms)
    exps = rng.integers(-3, 5, size=(n_eq * terms, n_var)).astype(np.int64)
    vexp = np.abs(rng.normal(size=n_eq * terms)) * 3.0
    offs = np.arange(0, n_eq * terms + 1, terms, dtype=np.int64)
    x = rng.choice([-1.0, 1.0], n_var) * np.exp(rng.uniform(-1, 1, n_var))
    lam = float(np.abs(rng.normal()) + 0.1)
    return coeffs, exps, vexp, offs, lam, x


def _per_equation(kernel, coeffs, exps, vexp, offs, lam, x):
    """Run a kernel on each equation alone and stack the rows."""
    rows = [
        kernel(coeffs[a:b], exps[a:b], vexp[a:b], np.array([0, b - a]), lam, x)
        for a, b in zip(offs[:-1], offs[1:])
    ]
    return tuple(np.concatenate(parts) for parts in zip(*rows))


class TestBackendAgreement:
    """The kernels against the scalar loops and against themselves per equation."""

    def test_h_scale_three_ways(self, rng):
        for _ in range(25):
            args = _random_flat_system(rng)
            h_ref, s_ref = loop_h_scale(*args)
            h, s = h_scale(*args)
            h_eq, s_eq = _per_equation(h_scale, *args)
            assert np.allclose(h, h_ref, rtol=1e-12, atol=1e-12)
            assert np.allclose(s, s_ref, rtol=1e-12, atol=1e-12)
            assert np.array_equal(h, h_eq)
            assert np.array_equal(s, s_eq)

    def test_jac_dlam_three_ways(self, rng):
        for _ in range(25):
            args = _random_flat_system(rng)
            j_ref, d_ref = loop_jac_dlam(*args)
            j, d = jac_dlam(*args)
            j_eq, d_eq = _per_equation(jac_dlam, *args)
            assert np.allclose(j, j_ref, rtol=1e-12, atol=1e-12)
            assert np.allclose(d, d_ref, rtol=1e-12, atol=1e-12)
            assert np.array_equal(j, j_eq)
            assert np.array_equal(d, d_eq)


class TestDerivatives:
    def test_jacobian_matches_finite_differences(self, rng):
        coeffs, exps, vexp, offs, lam, x = _random_flat_system(rng, terms=4)

        def fun(y):
            h, _ = h_scale(coeffs, exps, vexp, offs, lam, y)
            return h

        jac, _ = jac_dlam(coeffs, exps, vexp, offs, lam, x)
        ref = finite_difference_jacobian(fun, x)
        assert np.allclose(jac, ref, rtol=1e-5, atol=1e-6)

    def test_dlam_matches_finite_differences(self, rng):
        coeffs, exps, vexp, offs, lam, x = _random_flat_system(rng, terms=4)
        h_hi, _ = h_scale(coeffs, exps, vexp, offs, lam + 1e-6, x)
        h_lo, _ = h_scale(coeffs, exps, vexp, offs, lam - 1e-6, x)
        ref = (h_hi - h_lo) / 2e-6
        _, dlam = jac_dlam(coeffs, exps, vexp, offs, lam, x)
        assert np.allclose(dlam, ref, rtol=1e-5, atol=1e-7)
