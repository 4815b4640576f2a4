"""Independent reference computations the unit and acceptance tests pin against.

The oracles share no code with the solver's decision paths: mixed cells are
re-derived by LP feasibility, binomial systems by per-orthant grid search with
Newton polish, and quadratic root counts by the closed formula.

The loop references are the plain versions that faster code must reproduce
exactly: ``brute_force_mixed_cells`` runs the exact per-candidate test on every
edge tuple with no float screen, and ``reference_circuit_inequalities`` takes
each dependence as alternating maximal minors.  Their exact arithmetic has its
own elimination, independent of ``lattice.det_adjugate``: ``bareiss_det`` is
forward fraction-free elimination, ``cofactor_adjugate`` takes one such
determinant per minor, and ``adjugate_solve`` divides by the determinant with
the same rounding as ``lattice.solve_exact``.  ``loop_log_h_scale`` and
``loop_log_jac_dlam`` evaluate the deformed system in log coordinates term by
term in scalar loops, the reference for the vectorized kernels.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from realhomotopy import (
    CayleyConfig,
    EmptySupport,
    Lifting,
    MixedCell,
    MixedCellSet,
    SingularExponentMatrix,
    TieDegenerate,
)
from realhomotopy.mixed_cells import (
    TIE_RTOL,
    CircuitInequality,
    _order_edge,
    _primitive_direction,
)

LP_MARGIN = 1e-10


def lp_mixed_cells(
    config: CayleyConfig, lifting: Lifting
) -> list[tuple[tuple[tuple[int, int], ...], np.ndarray, int]]:
    """Brute-force LP enumeration of mixed cells.

    For every per-block edge tuple, maximize the worst exclusion margin s
    subject to the equality constraints on gamma; the candidate is a cell when
    the LP is feasible with s above a strict threshold.  Returns tuples of
    (per-block index pairs, gamma, volume).
    """
    n = config.n
    w = [float(v) for v in lifting.values]
    blocks = [config.block_indices(i) for i in range(n)]
    base = [np.array(config.base_point(k), dtype=float) for k in range(config.m)]
    out = []
    for cand in itertools.product(
        *(itertools.combinations(blk, 2) for blk in blocks)
    ):
        a_eq, b_eq, a_ub, b_ub = [], [], [], []
        for (p, q) in cand:
            a_eq.append(list(base[p] - base[q]) + [0.0])
            b_eq.append(w[q] - w[p])
        for i, blk in enumerate(blocks):
            p = cand[i][0]
            for k in blk:
                if k in cand[i]:
                    continue
                a_ub.append(list(base[k] - base[p]) + [1.0])
                b_ub.append(w[p] - w[k])
        res = linprog(
            c=[0.0] * n + [-1.0],
            A_ub=a_ub or None,
            b_ub=b_ub or None,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=[(None, None)] * n + [(None, 1.0)],
            method="highs",
        )
        if not res.success or res.x[-1] <= LP_MARGIN:
            continue
        gamma = np.array(res.x[:n])
        diff = np.array([base[p] - base[q] for p, q in cand])
        volume = int(round(abs(np.linalg.det(diff))))
        edges = tuple(
            tuple(sorted((config.origin_index[p], config.origin_index[q])))
            for p, q in cand
        )
        out.append((edges, gamma, volume))
    return out


def bareiss_det(matrix: list[list[int]]) -> int:
    """Exact determinant by forward fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def cofactor_adjugate(matrix: list[list[int]]) -> list[list[int]]:
    """Exact adjugate as the transposed matrix of signed cofactors."""
    n = len(matrix)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * bareiss_det(minor)
    return adj


def adjugate_solve(matrix: list[list[int]], rhs: list) -> list:
    """``matrix^-1 @ rhs`` as ``adj @ rhs / det``; exact for rational rhs."""
    det = bareiss_det(matrix)
    adj = cofactor_adjugate(matrix)
    out = []
    for row in adj:
        acc = sum(a * r for a, r in zip(row, rhs))
        out.append(Fraction(acc, det) if isinstance(acc, (int, Fraction)) else acc / det)
    return out


def signed_minor_dependence(rows: list[list[int]]) -> list[int]:
    """The affine-dependence vector of d+2 points given as homogenized rows.

    For a (d+1) x d integer matrix of rank d, the vector of alternating maximal
    minors spans its left kernel; entries are signed simplex volumes.
    """
    k = len(rows)
    out: list[int] = []
    for drop in range(k):
        sub = [list(rows[i]) for i in range(k) if i != drop]
        sign = -1 if drop % 2 else 1
        out.append(sign * bareiss_det(sub))
    return out


def reference_circuit_inequalities(
    cell: MixedCell, config: CayleyConfig
) -> list[CircuitInequality]:
    """Circuit inequalities with one signed-minor dependence per excluded point."""
    cell_idx = cell.cayley_indices(config)
    cell_rows = [list(config.points[k]) + [1] for k in cell_idx]
    out: list[CircuitInequality] = []
    cell_set = set(cell_idx)
    for alpha in range(config.m):
        if alpha in cell_set:
            continue
        rows = cell_rows + [list(config.points[alpha]) + [1]]
        dep = signed_minor_dependence(rows)
        g = math.gcd(*dep)
        if g == 0:
            raise SingularExponentMatrix("cell points are affinely dependent")
        dep = [v // g for v in dep]
        if dep[-1] > 0:
            dep = [-v for v in dep]
        coeffs = {k: v for k, v in zip(cell_idx + [alpha], dep) if v != 0}
        out.append(CircuitInequality(coeffs=coeffs, witness=alpha))
    return out


def brute_force_mixed_cells(config: CayleyConfig, lifting: Lifting) -> MixedCellSet:
    """The exact per-candidate test on every per-block edge tuple, in order.

    Same decisions, normals, tie handling and output order as
    ``enumerate_mixed_cells``, without its float screen.
    """
    n = config.n
    values = list(lifting.values)
    exact = lifting.is_exact()
    scale = 1.0 + max(abs(float(v)) for v in values)
    blocks = [config.block_indices(i) for i in range(n)]
    for i, blk in enumerate(blocks):
        if len(blk) < 2:
            raise EmptySupport(f"support {i} has fewer than 2 points")
    base = [config.base_point(k) for k in range(config.m)]
    cells: list[MixedCell] = []
    for cand in itertools.product(
        *(itertools.combinations(range(len(blk)), 2) for blk in blocks)
    ):
        edges = tuple(
            _order_edge(blk[p], blk[q], values) for blk, (p, q) in zip(blocks, cand)
        )
        rows = [[base[a][j] - base[b][j] for j in range(n)] for a, b in edges]
        det = bareiss_det(rows)
        if det == 0:
            continue
        gamma = adjugate_solve(rows, [values[b] - values[a] for a, b in edges])
        feasible = True
        tied_point = None
        for i, blk in enumerate(blocks):
            a_top, _ = edges[i]
            face = sum(g * c for g, c in zip(gamma, base[a_top])) + values[a_top]
            for k in blk:
                if k in edges[i]:
                    continue
                margin = face - (sum(g * c for g, c in zip(gamma, base[k])) + values[k])
                if exact:
                    tie = margin == 0
                else:
                    tie = abs(float(margin)) < TIE_RTOL * scale
                if tie:
                    tied_point = k
                elif margin < 0:
                    feasible = False
                    break
            if not feasible:
                break
        if not feasible:
            continue
        if tied_point is not None:
            raise TieDegenerate(
                f"lifting ties on point {tied_point} against cell {edges}"
            )
        normal = tuple(-g for g in gamma)
        cells.append(
            MixedCell(
                edges=tuple(
                    (config.origin_index[a], config.origin_index[b]) for a, b in edges
                ),
                normal=normal,
                volume=abs(det),
                primitive_normal=_primitive_direction(normal),
            )
        )
    cells.sort(key=lambda c: c.edges)
    inequalities = [
        zeta for cell in cells for zeta in reference_circuit_inequalities(cell, config)
    ]
    return MixedCellSet(cells=tuple(cells), inequalities=tuple(inequalities))


def quadratic_real_roots(c0: float, c1: float, c2: float) -> list[float]:
    disc = c1 * c1 - 4.0 * c0 * c2
    if disc < 0:
        return []
    if disc == 0:
        return [-c1 / (2.0 * c2)]
    r = math.sqrt(disc)
    return sorted([(-c1 - r) / (2.0 * c2), (-c1 + r) / (2.0 * c2)])


def grid_binomial_solutions(
    exponents: np.ndarray,
    rhs: np.ndarray,
    grid: int = 25,
    span: float = 12.0,
    rtol: float = 1e-9,
) -> list[np.ndarray]:
    """Per-orthant grid search plus Newton polish for ``x**D = rhs``.

    The magnitude grid lives in log space; refinement runs on the monomial
    values as functions of the log magnitudes where the Jacobian is exact.
    """
    d = np.asarray(exponents, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = d.shape[0]
    scale = np.maximum(1.0, np.abs(rhs))
    axes = np.linspace(-span, span, grid)
    mesh = np.array(list(itertools.product(axes, repeat=n)))
    solutions: list[np.ndarray] = []
    for signs in itertools.product((1.0, -1.0), repeat=n):
        s = np.array(signs)
        sigma = np.array(
            [np.prod(np.where(s < 0, np.where(d[i] % 2 == 1, -1.0, 1.0), 1.0))
             for i in range(n)]
        )

        def objective(u):
            val = sigma * np.exp(d @ u)
            return float(np.sum(((val - rhs) / scale) ** 2)), val

        vals = sigma[None, :] * np.exp(mesh @ d.T)
        sq = np.sum(((vals - rhs[None, :]) / scale[None, :]) ** 2, axis=1)
        u = mesh[int(np.argmin(sq))].copy()
        cur, val = objective(u)
        for _ in range(200):
            if cur < 1e-28:
                break
            jac = val[:, None] * d
            try:
                step = np.linalg.solve(jac, -(val - rhs))
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            biggest = float(np.max(np.abs(step)))
            if biggest > 4.0:
                # Rescale, keeping Newton's direction: it is always a descent
                # direction for the weighted squared residual.
                step *= 4.0 / biggest
            improved = False
            alpha = 1.0
            while alpha > 1e-8:
                nxt, nval = objective(u + alpha * step)
                if nxt < cur:
                    u, cur, val = u + alpha * step, nxt, nval
                    improved = True
                    break
                alpha *= 0.5
            if not improved:
                break
        val = sigma * np.exp(d @ u)
        if np.max(np.abs(val - rhs) / scale) < rtol:
            solutions.append(s * np.exp(u))
    solutions.sort(key=lambda x: tuple(x))
    return solutions


def _loop_log_terms(signs, logc, exps, vexp, a, b, lam, u):
    """Terms a..b-1 of one equation in log coordinates, over their largest exponent."""
    expo = []
    for k in range(a, b):
        acc = logc[k] - lam * vexp[k]
        for j in range(u.shape[0]):
            acc += exps[k, j] * u[j]
        expo.append(acc)
    shift = max(expo)
    return [signs[k] * math.exp(e - shift) for k, e in zip(range(a, b), expo)], shift


def loop_log_h_scale(signs, logc, exps, vexp, offs, lam, u):
    """Shifted residual and shift per equation, one term at a time."""
    n_eq = offs.shape[0] - 1
    h = np.zeros(n_eq)
    shift = np.zeros(n_eq)
    for i in range(n_eq):
        terms, shift[i] = _loop_log_terms(signs, logc, exps, vexp, offs[i], offs[i + 1], lam, u)
        for term in terms:
            h[i] += term
    return h, shift


def loop_log_jac_dlam(signs, logc, exps, vexp, offs, lam, u):
    """Jacobian in u and derivative in lam at a fixed shift, one term at a time."""
    n_eq = offs.shape[0] - 1
    n_var = u.shape[0]
    jac = np.zeros((n_eq, n_var))
    dlam = np.zeros(n_eq)
    for i in range(n_eq):
        terms, _ = _loop_log_terms(signs, logc, exps, vexp, offs[i], offs[i + 1], lam, u)
        for k, term in zip(range(offs[i], offs[i + 1]), terms):
            dlam[i] -= vexp[k] * term
            for j in range(n_var):
                jac[i, j] += term * exps[k, j]
    return jac, dlam


def finite_difference_jacobian(fun, x: np.ndarray, h: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a vector function."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        dx = np.zeros_like(x)
        dx[j] = h * max(1.0, abs(x[j]))
        cols.append((fun(x + dx) - fun(x - dx)) / (2.0 * dx[j]))
    return np.stack(cols, axis=1)
