"""Real path tracking from the toric limit to the target system.

The deformation multiplies the coefficient of each term by ``t**(w_max - w)``,
where w is the term's log-coefficient lifting and w_max the largest lifting in
its equation.  At t = 1 this is exactly the input system; as t -> 0 each
equation degenerates to the two terms of a mixed cell's edge.  Paths start on
the truncated branch ``sol * t0**normal`` and are continued in the log
parameter ``lam = -log t`` with an Euler predictor on the Davidenko system and
a Newton corrector, entirely in real arithmetic.  A path keeps the orthant
``s`` of its start and is tracked in ``u = log|x|`` (see ``_kernels``), where
it can neither cross a coordinate hyperplane nor overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
MAX_STEP = 2.0
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
    as floats; ``eq`` and ``weights`` are the kernels' ``_kernels.tables``.
    """

    logc: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)
    exps: np.ndarray = field(repr=False)
    vexp: np.ndarray = field(repr=False)
    offs: np.ndarray = field(repr=False)
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
    eq, weights = _kernels.tables(exps_f, vexp_f, offs_i)
    return HomotopySystem(
        logc=np.array([log_abs(c) for c in coeffs], dtype=np.float64),
        signs=np.array([1.0 if c > 0 else -1.0 for c in coeffs], dtype=np.float64),
        exps=exps_f,
        vexp=vexp_f,
        offs=offs_i,
        eq=eq,
        weights=weights,
    )


@dataclass
class PathState:
    """Mutable tracking state of one start solution."""

    t: float
    x: np.ndarray
    cell: MixedCell
    status: str = "tracking"
    message: str = ""


@dataclass(frozen=True)
class TrackedSolution:
    """A converged endpoint with its scaled residual and provenance."""

    point: tuple[float, ...]
    residual: float
    cell: MixedCell
    steps: int


def start_point(cell: MixedCell, sol: RealOrthantSolution, t0: float) -> np.ndarray:
    """The truncated branch point ``sol * t0**normal``."""
    zeta = [float(z) for z in cell.normal]
    return np.array([s * t0**z for s, z in zip(sol.point, zeta)], dtype=np.float64)


def make_path(cell: MixedCell, sol: RealOrthantSolution, t0: float) -> PathState:
    return PathState(t=t0, x=start_point(cell, sol, t0), cell=cell)


def _log_point(h: HomotopySystem, x: np.ndarray):
    """h with the term signs of the orthant of x, and ``log|x|``; None if a
    coordinate of x is zero or not finite."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x) & (x != 0.0)):
        return None
    signs = h.signs * np.prod(np.sign(x) ** h.exps, axis=1)
    return replace(h, signs=signs), np.log(np.abs(x))


def scaled_residual(h: HomotopySystem, t: float, x: np.ndarray) -> float:
    """Max-norm residual, each equation scaled by its largest term magnitude;
    ``inf`` if a coordinate of x is zero or not finite."""
    point = _log_point(h, x)
    if point is None:
        return math.inf
    hp, u = point
    hv, _ = _kernels.h_scale(
        hp.signs, hp.logc, hp.exps, hp.vexp, hp.offs, hp.eq, -math.log(t), u
    )
    return float(abs(hv).max())


def select_t0(
    h: HomotopySystem, cell: MixedCell, sols: Sequence[RealOrthantSolution]
) -> float:
    """Largest candidate t0 whose start residuals all sit below the threshold.

    The threshold is ``START_RESIDUAL_THRESHOLD``.  Candidates that put a
    start coordinate above ``START_COORD_BOUND`` are skipped, and one that
    underflows a coordinate to zero scores ``inf``; when no candidate clears
    the threshold the one with the smallest worst residual wins and the
    tracker corrects the start point by Newton.
    """
    best_t0 = T0_CANDIDATES[0]
    best_res = math.inf
    for t0 in T0_CANDIDATES:
        points = [start_point(cell, s, t0) for s in sols]
        if any(float(np.max(np.abs(p))) > START_COORD_BOUND for p in points):
            continue
        worst = max(scaled_residual(h, t0, p) for p in points)
        if worst < START_RESIDUAL_THRESHOLD:
            return t0
        if worst < best_res:
            best_res = worst
            best_t0 = t0
    return best_t0


def _newton(h: HomotopySystem, lam: float, u: np.ndarray, ctol: float, max_iters: int):
    """Newton in u at fixed lam with one fused kernel call per iterate.

    Returns the final residual, the final iterate, the iterations taken, and
    the Jacobian in u and derivative in lam at the final iterate: when the
    tracker accepts that iterate, its Euler predictor starts from these.
    """
    it = 0
    while True:
        hv, jac, dl = _kernels.jac_dlam(
            h.signs, h.logc, h.exps, h.vexp, h.offs, h.eq, h.weights, lam, u
        )
        res = float(abs(hv).max())
        if res < ctol or it == max_iters:
            break
        try:
            du = np.linalg.solve(jac, -hv)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(du).all():
            break
        u = u + du
        it += 1
    return res, u, it, (jac, dl)


def _track_one(h: HomotopySystem, path: PathState, tol: float) -> TrackedSolution:
    point = _log_point(h, path.x)
    if point is None:
        raise PathDiverged("start point outside the float range")
    h, u = point
    lam = -math.log(path.t)
    steps = 0
    if lam > 0.0:
        # Pull the truncated branch point onto the actual path before stepping.
        res, u, _, (jac, dl) = _newton(h, lam, u, CORRECTOR_TOL, 12)
        if res >= CORRECTOR_TOL:
            raise CorrectorStalled("start point correction failed")
        pace = max(max(abs(float(z)) for z in path.cell.normal), 1.0)
        dlam = min(0.1 * lam, MAX_LOG_MOVE / pace)
        easy = 0
        while lam > 0.0:
            # Euler predictor on the Davidenko system.  (lam, u) is the final
            # Newton iterate of the last correction, whose Jacobian and
            # lam-derivative came with it, and every halving below reuses the
            # tangent.
            try:
                udot = np.linalg.solve(jac, -dl)
            except np.linalg.LinAlgError:
                tangent_ok = False
            else:
                tangent_ok = bool(np.isfinite(udot).all())
            step = min(dlam, lam)
            newton_failures = 0
            while True:
                lam_new = lam - step
                res = math.inf
                if tangent_ok:
                    res, corrected, iters, derivs = _newton(
                        h, lam_new, u - step * udot, CORRECTOR_TOL, CORRECTOR_ITERS
                    )
                converged = res < CORRECTOR_TOL
                # An oversized log-space move marks an overlong step.
                if converged and abs(corrected - u).max() <= MAX_LOG_MOVE:
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
            u = corrected
            lam = lam_new
            jac, dl = derivs
            steps += 1
            if steps > MAX_STEPS:
                raise CorrectorStalled("step budget exhausted")
            dlam = step
            if iters <= 2:
                easy += 1
                if easy >= 4:
                    dlam = min(2.0 * dlam, MAX_STEP)
                    easy = 0
            else:
                easy = 0
    res, u, _, _ = _newton(h, 0.0, u, max(tol * 1e-4, 1e-14), 25)
    if res >= tol:
        raise CorrectorStalled(f"endpoint residual {res:.3e} above tol {tol:g}")
    with np.errstate(over="ignore", under="ignore"):
        x = np.sign(path.x) * np.exp(u)
    if not np.all(np.isfinite(x) & (x != 0.0)):
        raise PathDiverged("endpoint outside the float range")
    return TrackedSolution(
        point=tuple(float(v) for v in x), residual=res, cell=path.cell, steps=steps
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
