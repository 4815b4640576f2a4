"""Real path tracking from the toric limit to the target system.

The deformation multiplies the coefficient of each term by ``t**(w_max - w)``,
where w is the term's log-coefficient lifting and w_max the largest lifting in
its equation.  At t = 1 this is exactly the input system; as t -> 0 each
equation degenerates to the two terms of a mixed cell's edge.  Paths start on
the truncated branch ``sol * t0**normal`` and are continued in the log
parameter ``lam = -log t``, entirely in real arithmetic: a cubic Hermite
predictor through the last two points and their Davidenko tangents, doubled
steps sized down to their predicted move, and a Newton corrector.  A path keeps
the orthant ``s`` of its start and is tracked in ``u = log|x|`` (see
``_kernels``), where it can neither cross a coordinate hyperplane nor overflow.

At n = 2 a Newton iterate is mostly numpy call overhead, so each costs one
``_kernels.jac_dlam`` call and one ``np.linalg.solve``, and the norms and
finiteness tests on n-vectors read Python floats (``_max_norm``).  The solve
stays numpy's public one.  Of its 10 us on a 2 x 2 system about 2 us is the
LAPACK gufunc, but the three routes around the wrapper are ruled out:
scipy's ``dgesv`` (1.9 us) costs 0.3 s of ``import scipy.linalg`` per
process, beyond the benchmark's bound on ``setup_s``; numpy's
``_umath_linalg.solve1`` (2.3 us) is private, and reports a singular matrix
only through the floating-point error state that the wrapper sets up; and
tracking a solve's paths in lockstep, one batched solve for all of them,
measured no gain at the 2.8 paths per solve of the forced workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import CorrectorStalled, PathDiverged
from .lattice import Lifting, SupportSystem, log_abs
from .mixed_cells import MixedCell
from .binomial import RealOrthantSolution

CORRECTOR_TOL = 1e-10
CORRECTOR_ITERS = 3
START_COORD_BOUND = 1e10
MIN_STEP = 1e-14
MAX_STEPS = 50_000
# Largest allowed move of any log-coordinate in one accepted step.  Branches
# drift like t**zeta, so this caps the pace at a factor e per step and keeps
# the corrector from hopping to a neighboring solution branch.
MAX_LOG_MOVE = 1.0
# Endpoints in one orthant whose log|x| agree this closely in every
# coordinate count as one zero reached twice (path jumping).
DISTINCT_LOG_TOL = 1e-6
T0_CANDIDATES = tuple(10.0 ** -k for k in range(1, 9))
START_RESIDUAL_THRESHOLD = 1e-3


@dataclass(frozen=True, eq=False)
class HomotopySystem:
    """The deformed system as flattened term arrays for the kernels.

    ``logc`` and ``signs`` hold ``log|c|`` and ``sign(c)`` per term.  ``vexp``
    lists the per-term deformation exponents over all Cayley points in
    block-major order; all entries are nonnegative and each equation has at
    least one zero entry (its dominant term).  ``exps`` holds the exponents
    as floats; ``starts``, ``eq`` and ``weights`` are the kernels'
    ``_kernels.tables``.
    """

    logc: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)
    exps: np.ndarray = field(repr=False)
    vexp: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    eq: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def make_homotopy(system: SupportSystem, lifting: Lifting) -> HomotopySystem:
    """Assemble the deformation induced by a lifting.

    Exponents are normalized per equation so the dominant term carries t**0;
    per-equation shifts only rescale equations and leave the zero set alone.
    """
    w = lifting.as_floats()
    exps: list[tuple[int, ...]] = []
    vexp: list[float] = []
    offs = [0]
    pos = 0
    for sup in system.supports:
        w_eq = w[pos : pos + len(sup)]
        w_max = max(w_eq)
        for p, wv in zip(sup.points, w_eq):
            exps.append(p)
            vexp.append(w_max - wv)
        pos += len(sup)
        offs.append(len(exps))
    coeffs = [c for cs in system.coefficients for c in cs]
    exps_f = np.array(exps, dtype=np.float64)
    vexp_f = np.array(vexp, dtype=np.float64)
    offs_i = np.array(offs, dtype=np.int64)
    starts, eq, weights = _kernels.tables(exps_f, vexp_f, offs_i)
    return HomotopySystem(
        logc=np.array([log_abs(c) for c in coeffs], dtype=np.float64),
        signs=np.array([1.0 if c > 0 else -1.0 for c in coeffs], dtype=np.float64),
        exps=exps_f,
        vexp=vexp_f,
        starts=starts,
        eq=eq,
        weights=weights,
    )


@dataclass
class PathState:
    """Mutable tracking state of one start solution."""

    t: float
    x: np.ndarray
    status: str = "tracking"
    message: str = ""


@dataclass(frozen=True)
class TrackedSolution:
    """A converged endpoint with its scaled residual and accepted step count."""

    point: tuple[float, ...]
    residual: float
    steps: int


def start_point(cell: MixedCell, sol: RealOrthantSolution, t0: float) -> np.ndarray:
    """The truncated branch point ``sol * t0**normal``."""
    zeta = [float(z) for z in cell.normal]
    return np.array([s * t0**z for s, z in zip(sol.point, zeta)], dtype=np.float64)


def make_path(cell: MixedCell, sol: RealOrthantSolution, t0: float) -> PathState:
    return PathState(t=t0, x=start_point(cell, sol, t0))


def term_signs(h: HomotopySystem, orthant) -> np.ndarray:
    """The term signs ``sign(c_k) * prod_j s_j**exps[k, j]`` of h in the orthant
    ``s`` of a point, or one row per orthant for a ``(k, n)`` stack."""
    s = np.asarray(orthant, dtype=np.float64)
    return h.signs * np.prod(s[..., None, :] ** h.exps, axis=-1)


def scaled_residual(h: HomotopySystem, signs: np.ndarray, t: float, u: np.ndarray):
    """Max-norm residual at ``u = log|x|``, each equation scaled by its largest
    term magnitude, with the ``term_signs`` of x's orthant.  For a ``(k, n)``
    stack of points and ``(k, m)`` signs, one residual per point from one
    kernel call."""
    hv, _ = _kernels.h_scale(
        signs, h.logc, -math.log(t) * h.vexp, h.exps, h.starts, h.eq, u
    )
    return np.abs(hv).max(axis=-1)


def select_t0(
    h: HomotopySystem, cell: MixedCell, sols: Sequence[RealOrthantSolution]
) -> float:
    """Largest candidate t0 whose start residuals all sit below the threshold.

    The threshold is ``START_RESIDUAL_THRESHOLD``.  Candidates that put a
    start coordinate above ``START_COORD_BOUND`` are skipped, and one that
    underflows a coordinate to zero scores ``inf``; when no candidate clears
    the threshold the one with the smallest worst residual wins and the
    tracker corrects the start point by Newton.  The term signs of each
    start's orthant do not depend on t0 and are taken once; each candidate
    scores all starts in one ``scaled_residual`` call.
    """
    signs = term_signs(h, [s.signs for s in sols])
    best_t0 = T0_CANDIDATES[0]
    best_res = math.inf
    for t0 in T0_CANDIDATES:
        size = np.abs([start_point(cell, s, t0) for s in sols])
        if (size > START_COORD_BOUND).any():
            continue
        if (size == 0.0).any():
            worst = math.inf
        else:
            worst = float(scaled_residual(h, signs, t0, np.log(size)).max())
        if worst < START_RESIDUAL_THRESHOLD:
            return t0
        if worst < best_res:
            best_res = worst
            best_t0 = t0
    return best_t0


def _max_norm(values: list[float]) -> float:
    """``max |v|`` over Python floats; ``inf`` if any is NaN or infinite.

    Python's ``max`` passes over a NaN anywhere but in first place
    (``max([1e-12, nan]) == 1e-12``), which would read a NaN residual as
    converged.  On the tracker's n-vectors, ``tolist`` and this beat a numpy
    reduction by about 2 us.
    """
    if all(map(math.isfinite, values)):
        return max(map(abs, values))
    return math.inf


def _newton(
    h: HomotopySystem,
    weights: np.ndarray,
    lam: float,
    u: np.ndarray,
    ctol: float,
    max_iters: int,
):
    """Newton in u at fixed lam with one fused kernel call and one solve per
    iterate; ``weights`` is ``h.weights`` signed for the path's orthant.

    Returns the final residual (``_max_norm``, so never NaN), the final
    iterate and the kernel table ``[h | J_u | dh/dlam]`` at it: when the
    tracker accepts that iterate, its tangent for the predictor comes from
    this table.
    """
    lam_vexp = lam * h.vexp
    it = 0
    while True:
        table = _kernels.jac_dlam(h.logc, lam_vexp, h.exps, h.starts, h.eq, weights, u)
        hv = table[:, 0]
        res = _max_norm(hv.tolist())
        if res < ctol or it == max_iters:
            break
        try:
            du = np.linalg.solve(table[:, 1:-1], hv)
        except np.linalg.LinAlgError:
            break
        if _max_norm(du.tolist()) == math.inf:
            break
        u = u - du
        it += 1
    return res, u, table


def _predict(lam: float, u: np.ndarray, udot: np.ndarray, prev, step: float):
    """u at ``lam - step`` on the cubic Hermite interpolant in lam through the last
    point ``prev = (lam0, u0, udot0)`` and (lam, u, udot); the Euler step if None."""
    euler = u - step * udot
    if prev is None:
        return euler
    lam0, u0, udot0 = prev
    gap = lam0 - lam
    slope = (u0 - u) / gap
    curve = (slope - udot) / gap
    cubic = (udot0 - 2.0 * slope + udot) / gap**2
    return euler + step**2 * (curve - (step + gap) * cubic)


def _track_one(h: HomotopySystem, path: PathState, tol: float) -> TrackedSolution:
    """Continue one path from ``path.t`` < 1 to t = 1.  Each step doubles the
    last accepted one, bounded by the predicted move and the remaining lam; a
    singular or non-finite tangent, or a fourth corrector failure in one step,
    fails the path.  Norms and finiteness tests on n-vectors read Python
    floats (``_max_norm``)."""
    x = np.asarray(path.x, dtype=np.float64)
    if not np.all(np.isfinite(x) & (x != 0.0)):
        raise PathDiverged("start point outside the float range")
    weights = term_signs(h, np.sign(x))[:, None] * h.weights
    u = np.log(np.abs(x))
    lam = -math.log(path.t)
    steps = 0
    # Pull the truncated branch point onto the actual path before stepping.
    res, u, table = _newton(h, weights, lam, u, CORRECTOR_TOL, 12)
    if res >= CORRECTOR_TOL:
        raise CorrectorStalled("start point correction failed")
    dlam = 0.1 * lam
    prev = None
    while lam > 0.0:
        # The tangent at (lam, u) comes from the last correction's Jacobian
        # and lam-derivative; every halving below reuses the same predictor.
        try:
            udot = np.linalg.solve(table[:, 1:-1], -table[:, -1])
            speed = _max_norm(udot.tolist())
        except np.linalg.LinAlgError:
            speed = math.inf
        if speed == math.inf:
            raise CorrectorStalled(f"tangent solve failed at lam={lam:.3e}")
        step = min(dlam, lam)
        # Size the step by its predicted move.  The 0.9 leaves room for the
        # predictor's error, so the corrected move rarely overshoots the cap.
        if step * speed > 0.9 * MAX_LOG_MOVE:
            step = 0.9 * MAX_LOG_MOVE / speed
        newton_failures = 0
        while True:
            lam_new = lam - step
            guess = _predict(lam, u, udot, prev, step)
            res, corrected, corrected_table = _newton(
                h, weights, lam_new, guess, CORRECTOR_TOL, CORRECTOR_ITERS
            )
            converged = res < CORRECTOR_TOL
            # An oversized log-space move marks an overlong step.
            if converged and _max_norm((corrected - u).tolist()) <= MAX_LOG_MOVE:
                break
            if not converged:
                newton_failures += 1
                if newton_failures > 3:
                    raise CorrectorStalled(
                        f"corrector failed after 3 halvings at lam={lam:.3e}"
                    )
            step *= 0.5
            if step < MIN_STEP:
                raise PathDiverged("step size underflow")
        prev = (lam, u, udot)
        u = corrected
        lam = lam_new
        table = corrected_table
        steps += 1
        if steps > MAX_STEPS:
            raise CorrectorStalled("step budget exhausted")
        dlam = 2.0 * step
    # Polish to well below tol, but never stop above it.
    res, u, _ = _newton(h, weights, 0.0, u, min(tol, max(tol * 1e-4, 1e-14)), 25)
    if res >= tol:
        raise CorrectorStalled(f"endpoint residual {res:.3e} above tol {tol:g}")
    with np.errstate(over="ignore", under="ignore"):
        x = np.sign(path.x) * np.exp(u)
    if not np.all(np.isfinite(x) & (x != 0.0)):
        raise PathDiverged("endpoint outside the float range")
    return TrackedSolution(
        point=tuple(float(v) for v in x), residual=res, steps=steps
    )


def _coinciding(points: Sequence[tuple[float, ...]]):
    """Pairs (a, b), a < b, of points in one orthant whose ``log|x|`` agree
    within ``DISTINCT_LOG_TOL`` in every coordinate."""
    x = np.array(points)
    signs, logs = np.sign(x), np.log(np.abs(x))
    for a in range(len(points) - 1):
        near = (signs[a + 1 :] == signs[a]).all(axis=1) & (
            abs(logs[a + 1 :] - logs[a]) <= DISTINCT_LOG_TOL
        ).all(axis=1)
        for b in np.flatnonzero(near):
            yield a, a + 1 + int(b)


def track(
    h: HomotopySystem, paths: Sequence[PathState], tol: float = 1e-8
) -> list[TrackedSolution]:
    """Continue the paths to t = 1 one by one; failures are recorded, never raised.

    Each path's status (and, on failure, message) is set in place; the
    converged endpoints are returned in path order.  Two paths whose
    endpoints coincide have jumped onto one branch: both are recorded as
    failed and neither endpoint is returned.
    """
    converged: list[tuple[int, TrackedSolution]] = []
    for k, path in enumerate(paths):
        try:
            converged.append((k, _track_one(h, path, tol)))
            path.status = "converged"
        except (PathDiverged, CorrectorStalled) as exc:
            path.status = "diverged" if isinstance(exc, PathDiverged) else "failed"
            path.message = str(exc)
    clashes: dict[int, int] = {}
    for a, b in _coinciding([s.point for _, s in converged]):
        ka, kb = converged[a][0], converged[b][0]
        clashes.setdefault(ka, kb)
        clashes.setdefault(kb, ka)
    for k, other in clashes.items():
        paths[k].status = "failed"
        paths[k].message = f"endpoint coincides with path {other}"
    return [s for k, s in converged if k not in clashes]
