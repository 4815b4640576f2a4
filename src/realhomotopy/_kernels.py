"""Evaluation kernels for the deformed system in log coordinates.

With ``x = s * exp(u)`` and ``lam = -log t``, term k of equation i is
``signs[k] * exp(logc[k] + exps[k] . u - lam * vexp[k] - shift[i])``, where
``signs[k] = sign(c_k) * prod_j s_j**exps[k, j]`` and ``shift[i]`` is the
largest exponent in equation i.  Every term lies in [-1, 1], so nothing
overflows, and dividing an equation by ``exp(shift[i]) > 0`` moves neither
its zeros nor a Newton step.  Equation i owns terms ``offs[i] : offs[i+1]``.

Each kernel evaluates every term in one numpy expression and reduces per
equation with ``reduceat``.  ``BACKEND`` names this implementation for the
benchmark's environment record; the number and cost of kernel calls per
solve are the ``kernels.*`` metrics of ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _terms(signs, logc, exps, vexp, offs, lam, u):
    a = logc + exps @ u - lam * vexp
    shift = np.maximum.reduceat(a, offs[:-1])
    return signs * np.exp(a - np.repeat(shift, np.diff(offs))), shift


def h_scale(signs, logc, exps, vexp, offs, lam, u):
    """Each equation over its largest term magnitude, and the log of that magnitude."""
    terms, shift = _terms(signs, logc, exps, vexp, offs, lam, u)
    return np.add.reduceat(terms, offs[:-1]), shift


def jac_dlam(signs, logc, exps, vexp, offs, lam, u):
    """Jacobian in u and derivative in lam of the shifted equations, shift held fixed."""
    terms, _ = _terms(signs, logc, exps, vexp, offs, lam, u)
    dlam = np.add.reduceat(-vexp * terms, offs[:-1])
    jac = np.add.reduceat(terms[:, None] * exps, offs[:-1], axis=0)
    return jac, dlam
