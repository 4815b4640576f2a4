"""Evaluation kernels for the deformed system, on flattened term arrays.

The deformation is evaluated in the log parameter ``lam = -log t``; term k of
equation i contributes ``coeffs[k] * exp(-lam * vexp[k]) * x**exps[k]``.
Equations are stored back to back: equation i owns terms
``offs[i] : offs[i+1]``.

Each kernel evaluates every term in one numpy expression and reduces per
equation with ``reduceat``.  ``BACKEND`` names this implementation for the
benchmark's environment record; the number and cost of kernel calls per
solve are the ``kernels.*`` metrics of ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _terms(coeffs, exps, vexp, lam, x):
    return coeffs * np.exp(-lam * vexp) * np.prod(x[None, :] ** exps, axis=1)


def h_scale(coeffs, exps, vexp, offs, lam, x):
    """Residual of each equation and its largest term magnitude."""
    terms = _terms(coeffs, exps, vexp, lam, x)
    h = np.add.reduceat(terms, offs[:-1])
    scale = np.maximum.reduceat(np.abs(terms), offs[:-1])
    return h, scale


def jac_dlam(coeffs, exps, vexp, offs, lam, x):
    """Jacobian in x and derivative in lam; x must have no zero coordinate."""
    terms = _terms(coeffs, exps, vexp, lam, x)
    dlam = np.add.reduceat(-vexp * terms, offs[:-1])
    jac = np.add.reduceat(terms[:, None] * exps / x[None, :], offs[:-1], axis=0)
    return jac, dlam
