"""Evaluation kernels for the deformed system in log coordinates.

With ``x = s * exp(u)`` and ``lam = -log t``, term k of equation i is
``signs[k] * exp(logc[k] + exps[k] . u - lam * vexp[k] - shift[i])``, where
``signs[k] = sign(c_k) * prod_j s_j**exps[k, j]`` and ``shift[i]`` is the
largest exponent in equation i.  Every term lies in [-1, 1], so nothing
overflows, and dividing an equation by ``exp(shift[i]) > 0`` moves neither
its zeros nor a Newton step.  Equation i owns terms ``offs[i] : offs[i+1]``;
``eq[k]`` is the equation of term k and ``weights`` the per-term table
``[1 | exps | -vexp]`` (both from ``tables``).

Each kernel evaluates every term in one numpy expression and reduces per
equation with ``reduceat``.  ``jac_dlam`` is the tracker's only kernel: one
term evaluation and one reduction over ``weights`` give the shifted residual,
the Jacobian in u and the derivative in lam together.  It keeps the name of
the Jacobian kernel it replaced, which is the name the benchmark's tracer
wraps.  ``h_scale`` evaluates the residual alone, for ``scaled_residual``.
``BACKEND`` names this implementation for the benchmark's environment
record; the number and cost of kernel calls per solve are the ``kernels.*``
metrics of ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def tables(exps, vexp, offs):
    """The term-to-equation index ``eq`` and the weight table ``[1 | exps | -vexp]``."""
    eq = np.repeat(np.arange(offs.shape[0] - 1), np.diff(offs))
    weights = np.column_stack([np.ones(vexp.shape[0]), exps, -vexp])
    return eq, weights


def _terms(signs, logc, exps, vexp, offs, eq, lam, u):
    a = logc + exps @ u - lam * vexp
    shift = np.maximum.reduceat(a, offs[:-1])
    return signs * np.exp(a - shift[eq]), shift


def h_scale(signs, logc, exps, vexp, offs, eq, lam, u):
    """Each equation over its largest term magnitude, and the log of that magnitude."""
    terms, shift = _terms(signs, logc, exps, vexp, offs, eq, lam, u)
    return np.add.reduceat(terms, offs[:-1]), shift


def jac_dlam(signs, logc, exps, vexp, offs, eq, weights, lam, u):
    """The shifted equations, their Jacobian in u and their derivative in lam
    (shift held fixed), from one term evaluation."""
    terms, _ = _terms(signs, logc, exps, vexp, offs, eq, lam, u)
    sums = np.add.reduceat(terms[:, None] * weights, offs[:-1], axis=0)
    return sums[:, 0], sums[:, 1:-1], sums[:, -1]
