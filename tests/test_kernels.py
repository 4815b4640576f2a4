from __future__ import annotations

import numpy as np

from realhomotopy._kernels import h_scale, jac_dlam, tables
from oracles import finite_difference_jacobian, loop_log_h_scale, loop_log_jac_dlam


def _random_flat_system(rng, n_eq=2, n_var=2, terms=6):
    signs = rng.choice([-1.0, 1.0], n_eq * terms)
    logc = rng.normal(size=n_eq * terms)
    exps = rng.integers(-3, 5, size=(n_eq * terms, n_var)).astype(np.float64)
    vexp = np.abs(rng.normal(size=n_eq * terms)) * 3.0
    offs = np.arange(0, n_eq * terms + 1, terms, dtype=np.int64)
    u = rng.uniform(-1, 1, n_var)
    lam = float(np.abs(rng.normal()) + 0.1)
    return signs, logc, exps, vexp, offs, lam, u


def _h_scale(signs, logc, exps, vexp, offs, lam, u):
    """``h_scale`` on the flat arrays, with the tables and the per-lam term it
    takes precomputed."""
    starts, eq, _ = tables(exps, vexp, offs)
    return h_scale(signs, logc, lam * vexp, exps, starts, eq, u)


def _jac_dlam(signs, logc, exps, vexp, offs, lam, u):
    """``jac_dlam`` on the flat arrays with signed weights, its table split
    into the residual, the Jacobian and the lam-derivative."""
    starts, eq, weights = tables(exps, vexp, offs)
    table = jac_dlam(logc, lam * vexp, exps, starts, eq, signs[:, None] * weights, u)
    return table[:, 0], table[:, 1:-1], table[:, -1]


def _per_equation(kernel, signs, logc, exps, vexp, offs, lam, u):
    """Run a kernel on each equation alone and stack the rows."""
    rows = [
        kernel(signs[a:b], logc[a:b], exps[a:b], vexp[a:b], np.array([0, b - a]), lam, u)
        for a, b in zip(offs[:-1], offs[1:])
    ]
    return tuple(np.concatenate(parts) for parts in zip(*rows))


class TestBackendAgreement:
    """The kernels against the scalar loops and against themselves per equation."""

    def test_h_scale_three_ways(self, rng):
        for _ in range(25):
            args = _random_flat_system(rng)
            h_ref, s_ref = loop_log_h_scale(*args)
            h, s = _h_scale(*args)
            h_eq, s_eq = _per_equation(_h_scale, *args)
            assert np.allclose(h, h_ref, rtol=1e-12, atol=1e-12)
            assert np.allclose(s, s_ref, rtol=1e-12, atol=1e-12)
            assert np.array_equal(h, h_eq)
            assert np.array_equal(s, s_eq)

    def test_jac_dlam_three_ways(self, rng):
        for _ in range(25):
            args = _random_flat_system(rng)
            h_ref, _ = loop_log_h_scale(*args)
            j_ref, d_ref = loop_log_jac_dlam(*args)
            h, j, d = _jac_dlam(*args)
            h_eq, j_eq, d_eq = _per_equation(_jac_dlam, *args)
            assert np.allclose(h, h_ref, rtol=1e-12, atol=1e-12)
            assert np.allclose(j, j_ref, rtol=1e-12, atol=1e-12)
            assert np.allclose(d, d_ref, rtol=1e-12, atol=1e-12)
            assert np.array_equal(h, h_eq)
            assert np.array_equal(j, j_eq)
            assert np.array_equal(d, d_eq)
            # The fused residual is the residual kernel's, bit for bit.
            assert np.array_equal(h, _h_scale(*args)[0])

    def test_finite_far_outside_the_float_range(self, rng):
        # exp(1000) overflows a float; the shifted terms stay in [-1, 1].
        # Exponents reach ~1e4, so each term carries a relative error of a
        # few 1e4 * eps ~ 1e-11 from rounding its exponent.
        for _ in range(10):
            signs, logc, exps, vexp, offs, lam, u = _random_flat_system(rng)
            logc = rng.choice([-1.0, 1.0], logc.size) * rng.uniform(900, 1100, logc.size)
            u = rng.choice([-1.0, 1.0], u.size) * rng.uniform(900, 1100, u.size)
            args = (signs, logc, exps, vexp, offs, lam, u)
            h, s = _h_scale(*args)
            hf, j, d = _jac_dlam(*args)
            h_ref, s_ref = loop_log_h_scale(*args)
            refs = (h_ref, s_ref, h_ref) + loop_log_jac_dlam(*args)
            for got, ref in zip((h, s, hf, j, d), refs):
                assert np.all(np.isfinite(got))
                assert np.allclose(got, ref, rtol=1e-10, atol=1e-10)
            assert np.all(np.abs(h) <= 6.0)

    def test_h_scale_on_a_stack_is_each_point_bit_for_bit(self, rng):
        # One call scores every start of a t0 candidate, each in its own
        # orthant; row i must be the one-point call on point i.  Equations of
        # 12 terms reach past numpy's 8-wide blocks of pairwise summation.
        for n_var, terms in ((1, 3), (2, 6), (2, 12), (3, 5)):
            for _ in range(10):
                _, logc, exps, vexp, offs, lam, _ = _random_flat_system(
                    rng, n_eq=n_var, n_var=n_var, terms=terms
                )
                starts, eq, _ = tables(exps, vexp, offs)
                k = int(rng.integers(1, 7))
                signs = rng.choice([-1.0, 1.0], (k, logc.size))
                u = rng.uniform(-1, 1, (k, n_var)) * rng.choice([1.0, 1e3])
                h, s = h_scale(signs, logc, lam * vexp, exps, starts, eq, u)
                assert h.shape == s.shape == (k, n_var)
                for i in range(k):
                    h_i, s_i = h_scale(
                        signs[i], logc, lam * vexp, exps, starts, eq, u[i]
                    )
                    assert np.array_equal(h[i], h_i)
                    assert np.array_equal(s[i], s_i)


class TestDerivatives:
    """Finite differences of the shifted equations, with the shift held at its
    value at the base point: the shift itself depends on u and lam."""

    def test_jacobian_matches_finite_differences(self, rng):
        signs, logc, exps, vexp, offs, lam, u = _random_flat_system(rng, terms=4)
        _, shift0 = _h_scale(signs, logc, exps, vexp, offs, lam, u)

        def fun(y):
            h, shift = _h_scale(signs, logc, exps, vexp, offs, lam, y)
            return h * np.exp(shift - shift0)

        _, jac, _ = _jac_dlam(signs, logc, exps, vexp, offs, lam, u)
        ref = finite_difference_jacobian(fun, u)
        assert np.allclose(jac, ref, rtol=1e-5, atol=1e-6)

    def test_dlam_matches_finite_differences(self, rng):
        signs, logc, exps, vexp, offs, lam, u = _random_flat_system(rng, terms=4)
        _, shift0 = _h_scale(signs, logc, exps, vexp, offs, lam, u)
        h_hi, s_hi = _h_scale(signs, logc, exps, vexp, offs, lam + 1e-6, u)
        h_lo, s_lo = _h_scale(signs, logc, exps, vexp, offs, lam - 1e-6, u)
        ref = (h_hi * np.exp(s_hi - shift0) - h_lo * np.exp(s_lo - shift0)) / 2e-6
        _, _, dlam = _jac_dlam(signs, logc, exps, vexp, offs, lam, u)
        assert np.allclose(dlam, ref, rtol=1e-5, atol=1e-7)
