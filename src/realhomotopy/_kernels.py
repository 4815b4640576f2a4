"""Evaluation kernels for the deformed system in log coordinates.

With ``x = s * exp(u)`` and ``lam = -log t``, term k of equation i is
``signs[k] * exp(logc[k] + exps[k] . u - lam * vexp[k] - shift[i])``, where
``signs[k] = sign(c_k) * prod_j s_j**exps[k, j]`` and ``shift[i]`` is the
largest exponent in equation i.  Every term lies in [-1, 1], so nothing
overflows, and dividing an equation by ``exp(shift[i]) > 0`` moves neither
its zeros nor a Newton step.  Equation i owns the terms from ``starts[i]`` to
the next start; ``eq[k]`` is the equation of term k and ``weights`` the
per-term table ``[1 | exps | -vexp]`` (all three from ``tables``, stored on
``tracker.HomotopySystem``).

Both kernels take ``lam_vexp = lam * vexp``, which a caller forms once per
``lam`` (once per Newton solve), evaluate every term magnitude in place in
one array and reduce per equation with ``reduceat``.  ``jac_dlam`` is the
tracker's only kernel.  It takes ``weights`` with each row times its term's
sign (the path's orthant is fixed, so the tracker signs the table once per
path) and returns the one table ``[h | J_u | dh/dlam]`` of the shifted
residual, the Jacobian in u and the derivative in lam.  ``h_scale``
evaluates the residual alone.  The solver does not call it; the benchmark's
tracer wraps it by name, and the tests check ``jac_dlam``'s residual column
against it.  Its exponent products are a stack of matrix-vector products,
which round like ``jac_dlam``'s ``np.dot``, so on a ``(k, n)`` stack of
points each row equals the one-point result bit for bit.  ``BACKEND`` names
this implementation for the benchmark's environment record; the number and
cost of kernel calls per solve are the ``kernels.*`` metrics of
``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def tables(exps, vexp, offs):
    """The equation starts ``offs[:-1]``, the term-to-equation index ``eq`` and
    the weight table ``[1 | exps | -vexp]``, for terms grouped by ``offs``."""
    eq = np.repeat(np.arange(offs.shape[0] - 1), np.diff(offs))
    weights = np.column_stack([np.ones(vexp.shape[0]), exps, -vexp])
    return offs[:-1], eq, weights


def _magnitudes(logc, lam_vexp, starts, eq, a):
    """The term magnitudes over their equation's largest, in place in
    ``a = exps . u`` (a row per point), and the shift of each equation."""
    a += logc
    a -= lam_vexp
    shift = np.maximum.reduceat(a, starts, axis=-1)
    a -= shift.take(eq, axis=-1)
    np.exp(a, out=a)
    return a, shift


# Unused by the solver: perfbench/tracing.py's LEAVES wraps this name until
# ROADMAP item 1a retires it.
def h_scale(signs, logc, lam_vexp, exps, starts, eq, u):
    """Each equation over its largest term magnitude, and the log of that
    magnitude; ``u`` is one point or a stack of points."""
    a = (exps @ u[..., None])[..., 0]
    terms, shift = _magnitudes(logc, lam_vexp, starts, eq, a)
    terms = terms * signs
    return np.add.reduceat(terms, starts, axis=-1), shift


def jac_dlam(logc, lam_vexp, exps, starts, eq, signed_weights, u):
    """The table ``[h | J_u | dh/dlam]`` of the shifted equations, their
    Jacobian in u and their derivative in lam (shift held fixed), from one
    term evaluation at one point u; ``signed_weights`` is ``weights`` with
    each row times its term's sign."""
    mags, _ = _magnitudes(logc, lam_vexp, starts, eq, np.dot(exps, u))
    return np.add.reduceat(mags[:, None] * signed_weights, starts, axis=0)
