"""Independent reference computations the unit and acceptance tests pin against.

The oracles share no code with the solver's decision paths: mixed cells are
re-derived by LP feasibility (``lp_mixed_cells``, and the upper-hull edges of
one block by ``lp_upper_edges``), binomial systems by per-orthant grid search
with Newton polish, quadratic root counts by the closed formula, and a zero
given as signs and ``log|x|`` by its residual in 50-digit decimal arithmetic
(``log_residual``), and the mixed volume of two supports in the plane by
integer convex hulls (``mixed_volume_2d``), and at any n by the
inclusion-exclusion of Minkowski sums' volumes (``mixed_volume``); neither
reads a lifting or solver code.

The loop references are the plain versions that faster code must reproduce
exactly: ``brute_force_mixed_cells`` runs the exact per-candidate test on every
edge tuple with no float screen, and ``reference_circuit_inequalities`` takes
each dependence as alternating maximal minors of the homogenized Cayley
points.  ``enumerate_mixed_cells`` decides a candidate by the signs of its
circuit inequalities; ``brute_force_mixed_cells`` keeps the plain margin loop
(solve for gamma, compare every excluded point's lifted value with its
block's face) as the independent judge of that circuit-decided test.
``exact_edge_test`` decides one candidate the same plain way in rationals,
beside the rounding bound of the exact test's float reading of each margin:
the judge of what the float screen may drop.  Their
exact arithmetic has its own elimination, independent of
``lattice.det_adjugate``: ``bareiss_det`` is forward fraction-free
elimination, ``cofactor_adjugate`` takes one such determinant per minor, and
``adjugate_solve`` divides by the determinant with the same rounding as
``lattice.apply_adjugate``.  ``loop_log_h_scale`` and
``loop_log_jac_dlam`` evaluate the deformed system in log coordinates term by
term in scalar loops, the reference for the vectorized kernels.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from realhomotopy import (
    CayleyConfig,
    EmptySupport,
    Lifting,
    MixedCell,
    SingularExponentMatrix,
    TieDegenerate,
)
from realhomotopy.mixed_cells import TIE_RTOL

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
    origin = _origins(config)
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
            tuple(sorted((origin[p], origin[q])))
            for p, q in cand
        )
        out.append((edges, gamma, volume))
    return out


def lp_upper_edges(points, w, margin: float = LP_MARGIN) -> set[tuple[int, int]]:
    """Point pairs on an edge of the upper hull of the lifted points.

    For every pair p < q, maximize the worst exclusion margin s subject to
    gamma levelling ``<gamma, a> + w(a)`` on p and q and keeping every other
    point at least s below.  The pair counts when the optimum exceeds
    ``margin``: a positive margin asks for an edge, a negative one also takes
    pairs that share an upper face with other points (ties).
    """
    pts = np.array(points, dtype=float)
    vals = np.array([float(v) for v in w])
    n = pts.shape[1]
    out = set()
    for p, q in itertools.combinations(range(len(pts)), 2):
        others = [k for k in range(len(pts)) if k not in (p, q)]
        res = linprog(
            c=[0.0] * n + [-1.0],
            A_ub=[list(pts[k] - pts[p]) + [1.0] for k in others] or None,
            b_ub=[vals[p] - vals[k] for k in others] or None,
            A_eq=[list(pts[p] - pts[q]) + [0.0]],
            b_eq=[vals[q] - vals[p]],
            bounds=[(None, None)] * n + [(None, 1.0)],
            method="highs",
        )
        if res.success and res.x[-1] > margin:
            out.add((p, q))
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
        # A running sum from 0, not the builtin ``sum``, which compensates
        # floats from Python 3.12 on.
        acc = 0
        for a, r in zip(row, rhs):
            acc += a * r
        out.append(Fraction(acc, det) if isinstance(acc, (int, Fraction)) else acc / det)
    return out


def exact_edge_test(
    points: list[list[tuple[int, ...]]], values: list[list[float]], edges
) -> tuple[int, list[Fraction] | None, list[tuple[Fraction, float]]]:
    """One candidate decided in exact arithmetic, with no circuit and no float.

    ``points`` and ``values`` hold each block's integer points and lifting
    values, taken as exact rationals; ``edges`` holds one local point pair
    (p, q) per block.  Returns the determinant of the edge rows ``p - q``,
    and when it is nonzero gamma, which levels every edge:
    ``gamma . (p - q) = w(q) - w(p)``, and then per excluded point k its
    margin ``lifted(p) - lifted(k)``, lifted(x) = gamma . x + w(x), beside
    the bound ``2 (n + 2) eps scale |zeta|_1 / |zeta[k]|`` on the float
    rounding of the exact test's reading of that margin from k's circuit
    zeta (scale = 1 + max |w|).  Up to sign that circuit is ``lam_i`` on
    ``p_i``, ``[i = j] - lam_i`` on ``q_i`` and -1 on k, with lam the
    solution of ``sum_i lam_i (p_i - q_i) = k - q_j``, j the block of k.
    """
    n = len(points)
    eps = float(np.finfo(float).eps)
    scale = 1.0 + max(abs(v) for row in values for v in row)
    w = [[Fraction(v) for v in row] for row in values]
    ends = [(blk[p], blk[q]) for blk, (p, q) in zip(points, edges)]
    rows = [[x - y for x, y in zip(p, q)] for p, q in ends]
    det = bareiss_det(rows)
    if det == 0:
        return 0, None, []
    gamma = adjugate_solve(rows, [w[j][q] - w[j][p] for j, (p, q) in enumerate(edges)])
    transposed = [list(col) for col in zip(*rows)]
    margins = []
    for j, (blk, (p, q)) in enumerate(zip(points, edges)):
        face = sum(g * c for g, c in zip(gamma, blk[p])) + w[j][p]
        for k, point in enumerate(blk):
            if k in (p, q):
                continue
            margin = face - (sum(g * c for g, c in zip(gamma, point)) + w[j][k])
            lam = adjugate_solve(transposed, [x - y for x, y in zip(point, blk[q])])
            ratio = 1 + sum(abs(v) + abs((i == j) - v) for i, v in enumerate(lam))
            margins.append((margin, 2 * (n + 2) * eps * scale * float(ratio)))
    return det, gamma, margins


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
) -> list[tuple[dict[int, int], int]]:
    """Circuit inequalities with one signed-minor dependence per excluded point.

    Each is a row ``(coeffs, witness)``: the nonzero coefficients by Cayley
    point, the cell's points in edge order and then the witness, the excluded
    point, whose coefficient is negative.
    """
    cell_idx = [
        config.block_indices(i)[p]
        for i, edge in enumerate(cell.edges)
        for p in edge
    ]
    cell_rows = [list(config.points[k]) + [1] for k in cell_idx]
    out: list[tuple[dict[int, int], int]] = []
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
        out.append((coeffs, alpha))
    return out


def _origins(config: CayleyConfig) -> list[int]:
    """Each Cayley point's index in its own support: the configuration is
    block-major, so it is the point's index less its block's first."""
    return [k - config.block.index(b) for k, b in enumerate(config.block)]


def _lower_first(p: int, q: int, values) -> tuple[int, int]:
    """A cell edge's points, the lower-lifted one first; on a tie the lower
    index (the documented ``MixedCell.edges`` orientation)."""
    return (p, q) if (values[p], p) <= (values[q], q) else (q, p)


def brute_force_mixed_cells(
    config: CayleyConfig, lifting: Lifting
) -> tuple[tuple[MixedCell, ...], list[tuple[dict[int, int], int]]]:
    """The exact per-candidate test on every per-block edge tuple, in order.

    Same decisions, normals, tie handling and output order as
    ``enumerate_mixed_cells``, without its float screen, and with each
    exclusion margin taken from gamma and the block's face rather than from
    a circuit.  Returns the cells and, cell by cell, the rows of
    ``reference_circuit_inequalities``.

    The margins are floats, ``<gamma, a> + w(a)`` against the face's
    height, so at exponents whose products with gamma cancel far below
    their size the loop misjudges candidates.  Do not judge enumerations
    with exponents near 10^20 and beyond by it.  On three blocks of 4
    points with one exponent 10^20, 10^40 or 10^80 in each
    (``test_mixed_cells._huge_n3``, generator seed 0), its total volume
    takes 3 distinct values over the lifting log|c| and 5 perturbed ones,
    at every scale, where every regular mixed subdivision's total is the
    mixed volume and ``enumerate_mixed_cells``' takes one.  Judge such
    enumerations by their total volume over several liftings.
    """
    n = config.n
    values = list(lifting.values)
    scale = 1.0 + max(abs(v) for v in values)
    blocks = [config.block_indices(i) for i in range(n)]
    for i, blk in enumerate(blocks):
        if len(blk) < 2:
            raise EmptySupport(f"support {i} has fewer than 2 points")
    base = [config.base_point(k) for k in range(config.m)]
    origin = _origins(config)
    cells: list[MixedCell] = []
    for cand in itertools.product(
        *(itertools.combinations(range(len(blk)), 2) for blk in blocks)
    ):
        edges = tuple(
            _lower_first(blk[p], blk[q], values) for blk, (p, q) in zip(blocks, cand)
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
                if abs(margin) < TIE_RTOL * scale:
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
                    (origin[a], origin[b]) for a, b in edges
                ),
                normal=normal,
                volume=abs(det),
            )
        )
    cells.sort(key=lambda c: c.edges)
    rows = [row for cell in cells for row in reference_circuit_inequalities(cell, config)]
    return tuple(cells), rows


def _hull_2d(points) -> list[tuple[int, int]]:
    """The vertices of the convex hull of integer points in the plane,
    counterclockwise (Andrew's monotone chain, exact on Python ints)."""
    pts = sorted(set((int(x), int(y)) for x, y in points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


def _doubled_area(hull) -> int:
    """Twice the area of a polygon given by its vertices in order."""
    return abs(
        sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]))
    )


def mixed_volume_2d(system) -> int:
    """The mixed volume of a system's two supports in Z^2, from integer
    convex hulls alone: ``area(P + Q) - area(P) - area(Q)``, each area
    doubled so that every step is an exact Python-int sum.  ``P + Q`` is
    the hull of all sums of a vertex of P and one of Q.  By Bernstein's
    theorem and Huber and Sturmfels' mixed subdivisions, the volumes of the
    mixed cells of any generic lifting add up to it."""
    first, second = (_hull_2d(s.points) for s in system.supports)
    total = _hull_2d([(a + c, b + d) for a, b in first for c, d in second])
    doubled = _doubled_area(total) - _doubled_area(first) - _doubled_area(second)
    assert doubled % 2 == 0, doubled
    return doubled // 2


def _hull_vertices(points: np.ndarray) -> tuple[np.ndarray, float]:
    """The vertices of the convex hull of integer points in R^n and its
    volume; a hull that spans less than R^n has volume 0 and keeps every
    point."""
    points = np.unique(points, axis=0)
    n = points.shape[1]
    if len(points) <= n or np.linalg.matrix_rank(points[1:] - points[0]) < n:
        return points, 0.0
    hull = ConvexHull(points)
    return points[hull.vertices], float(hull.volume)


def mixed_volume(system) -> int:
    """The mixed volume of a system's n supports in Z^n: the sum over the
    nonempty sets S of supports of ``(-1)^(n - |S|) vol(sum_{i in S} P_i)``,
    each Minkowski sum's volume from scipy's convex hull of the sums of
    the summands' hull vertices, and a flat sum's volume 0.  The alternating
    sum is an integer, so it is rounded.  By Bernstein's theorem and Huber
    and Sturmfels' mixed subdivisions, the volumes of the mixed cells of
    any generic lifting add up to it."""
    polytopes = [np.array(s.points, dtype=np.int64) for s in system.supports]
    n = len(polytopes)
    sums = {(): (np.zeros((1, n), dtype=np.int64), 0.0)}
    total = 0.0
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            vertices = sums[subset[:-1]][0]
            summand = _hull_vertices(polytopes[subset[-1]])[0]
            points = (vertices[:, None, :] + summand[None, :, :]).reshape(-1, n)
            sums[subset] = _hull_vertices(points)
            total += (-1) ** (n - size) * sums[subset][1]
    return round(total)


def quadratic_real_roots(c0: float, c1: float, c2: float) -> list[float]:
    disc = c1 * c1 - 4.0 * c0 * c2
    if disc < 0:
        return []
    if disc == 0:
        return [-c1 / (2.0 * c2)]
    r = math.sqrt(disc)
    return sorted([(-c1 - r) / (2.0 * c2), (-c1 + r) / (2.0 * c2)])


def log_residual(system, signs, logs) -> float:
    """Max over equations of ``|sum of terms| / max |term|`` at the point
    ``x_j = signs[j] * exp(logs[j])``, in 50-digit decimal arithmetic.

    Each term is its sign and the log of its magnitude, ``log|c| + a . logs``,
    with ``log|c|`` from the exact coefficient, so x is never formed and a
    zero at ``exp(+-2000)`` is judged like any other.  Reads only the
    system's ``supports[i].points`` and ``coefficients``.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        u = [Decimal(v) for v in logs]
        worst = Decimal(0)
        for support, coeffs in zip(system.supports, system.coefficients):
            terms = []
            for a, c in zip(support.points, coeffs):
                c = Fraction(c)
                sign = math.prod(s for s, e in zip(signs, a) if e % 2)
                log_c = Decimal(abs(c.numerator)).ln() - Decimal(c.denominator).ln()
                log_term = log_c + sum(e * v for e, v in zip(a, u))
                terms.append((sign if c > 0 else -sign, log_term))
            top = max(m for _, m in terms)
            worst = max(worst, abs(sum(s * (m - top).exp() for s, m in terms)))
        return float(worst)


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
