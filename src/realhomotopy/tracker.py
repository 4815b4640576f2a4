"""Real path tracking from the toric limit to the target system.

The deformation multiplies the coefficient of each term by ``t**(w_max - w)``,
where w is the term's log-coefficient lifting and w_max the largest lifting in
its equation.  At t = 1 this is exactly the input system; as t -> 0 each
equation degenerates to the two terms of a mixed cell's edge.  Paths start on
the truncated branch ``sol * t0**normal`` and are continued in the log
parameter ``lam = -log t`` with an Euler predictor on the Davidenko system and
a Newton corrector, entirely in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import CorrectorStalled, PathDiverged
from .lattice import Lifting, SupportSystem
from .mixed_cells import MixedCell
from .binomial import RealOrthantSolution

CORRECTOR_TOL = 1e-10
CORRECTOR_ITERS = 3
DIVERGENCE_BOUND = 1e12
START_COORD_BOUND = 1e10
MIN_STEP = 1e-14
MAX_STEP = 2.0
MAX_STEPS = 50_000
# Largest allowed move of any log-coordinate in one accepted step.  Branches
# drift like t**zeta, so this caps the pace at a factor e per step and keeps
# the corrector from hopping to a neighboring solution branch.
MAX_LOG_MOVE = 1.0
T0_CANDIDATES = tuple(10.0 ** -k for k in range(1, 9))
START_RESIDUAL_THRESHOLD = 1e-3


@dataclass(frozen=True, eq=False)
class HomotopySystem:
    """The deformed system as flattened term arrays for the kernels.

    ``vexp`` lists the per-term deformation exponents over all Cayley points
    in block-major order; all entries are nonnegative and each equation has
    at least one zero entry (its dominant term).
    """

    coeffs: np.ndarray = field(repr=False)
    exps: np.ndarray = field(repr=False)
    vexp: np.ndarray = field(repr=False)
    offs: np.ndarray = field(repr=False)


def make_homotopy(system: SupportSystem, lifting: Lifting) -> HomotopySystem:
    """Assemble the deformation induced by a lifting.

    Exponents are normalized per equation so the dominant term carries t**0;
    per-equation shifts only rescale equations and leave the zero set alone.
    """
    w = lifting.as_floats()
    coeffs: list[float] = []
    exps: list[tuple[int, ...]] = []
    vexp: list[float] = []
    offs = [0]
    pos = 0
    for sup, cs in zip(system.supports, system.coefficients):
        w_eq = w[pos : pos + len(sup)]
        w_max = max(w_eq)
        for p, c, wv in zip(sup.points, cs, w_eq):
            coeffs.append(float(c))
            exps.append(p)
            vexp.append(w_max - wv)
        pos += len(sup)
        offs.append(len(coeffs))
    return HomotopySystem(
        coeffs=np.array(coeffs, dtype=np.float64),
        exps=np.array(exps, dtype=np.int64),
        vexp=np.array(vexp, dtype=np.float64),
        offs=np.array(offs, dtype=np.int64),
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


def _residual(h: HomotopySystem, lam: float, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Scaled max-norm residual at ``lam`` and the raw residual vector."""
    hv, sc = _kernels.h_scale(h.coeffs, h.exps, h.vexp, h.offs, lam, x)
    return float(np.max(np.abs(hv) / np.maximum(sc, 1e-300))), hv


def scaled_residual(h: HomotopySystem, t: float, x: np.ndarray) -> float:
    """Max-norm residual, each equation scaled by its largest term magnitude."""
    return _residual(h, -math.log(t), np.asarray(x, dtype=np.float64))[0]


def select_t0(
    h: HomotopySystem,
    cell: MixedCell,
    sols: Sequence[RealOrthantSolution],
    threshold: float = START_RESIDUAL_THRESHOLD,
) -> float:
    """Largest candidate t0 whose start residuals all sit below the threshold.

    Candidates whose start coordinates would trip the divergence guard are
    skipped; when no candidate clears the threshold the one with the smallest
    worst residual wins and the tracker corrects the start point by Newton.
    """
    best_t0 = T0_CANDIDATES[0]
    best_res = math.inf
    for t0 in T0_CANDIDATES:
        points = [start_point(cell, s, t0) for s in sols]
        if any(float(np.max(np.abs(p))) > START_COORD_BOUND for p in points):
            continue
        worst = max(scaled_residual(h, t0, p) for p in points)
        if worst < threshold:
            return t0
        if worst < best_res:
            best_res = worst
            best_t0 = t0
    return best_t0


def _newton(h: HomotopySystem, lam: float, x0: np.ndarray, ctol: float, max_iters: int):
    x = x0.copy()
    for it in range(max_iters):
        res, hv = _residual(h, lam, x)
        if res < ctol:
            return True, x, it
        if not np.all(x):
            # The Jacobian divides by x, and no real path into the torus
            # reaches a coordinate hyperplane.
            return False, x, it
        jac, _ = _kernels.jac_dlam(h.coeffs, h.exps, h.vexp, h.offs, lam, x)
        try:
            dx = np.linalg.solve(jac, -hv)
        except np.linalg.LinAlgError:
            return False, x, it
        if not np.all(np.isfinite(dx)):
            return False, x, it
        x = x + dx
    return _residual(h, lam, x)[0] < ctol, x, max_iters


def _track_one(h: HomotopySystem, path: PathState, tol: float) -> TrackedSolution:
    x = np.array(path.x, dtype=np.float64)
    lam = -math.log(path.t)
    steps = 0
    if lam > 0.0 and scaled_residual(h, path.t, x) > CORRECTOR_TOL:
        # Pull the truncated branch point onto the actual path before stepping.
        ok, corrected, _ = _newton(h, lam, x, CORRECTOR_TOL, 12)
        if not ok or not np.array_equal(np.sign(corrected), np.sign(x)):
            raise CorrectorStalled("start point correction failed")
        x = corrected
    if lam > 0.0:
        pace = max(max(abs(float(z)) for z in path.cell.normal), 1.0)
        dlam = min(0.1 * lam, MAX_LOG_MOVE / pace)
        easy = 0
        while lam > 0.0:
            if float(np.max(np.abs(x))) > DIVERGENCE_BOUND:
                raise PathDiverged(f"coordinate magnitude exceeded {DIVERGENCE_BOUND:g}")
            step = min(dlam, lam)
            newton_failures = 0
            while True:
                lam_new = lam - step
                jac, dl = _kernels.jac_dlam(h.coeffs, h.exps, h.vexp, h.offs, lam, x)
                converged = True
                try:
                    xdot = np.linalg.solve(jac, -dl)
                except np.linalg.LinAlgError:
                    converged = False
                if converged and np.all(np.isfinite(xdot)):
                    predicted = x - step * xdot
                    converged, corrected, iters = _newton(
                        h, lam_new, predicted, CORRECTOR_TOL, CORRECTOR_ITERS
                    )
                else:
                    converged = False
                accepted = converged
                if converged:
                    # A real path into the torus never crosses a coordinate
                    # hyperplane, and it moves at a bounded log-space pace; a
                    # sign flip or an oversized move marks an overlong step.
                    if not np.array_equal(np.sign(corrected), np.sign(x)):
                        accepted = False
                    elif (
                        float(np.max(np.abs(np.log(np.abs(corrected)) - np.log(np.abs(x)))))
                        > MAX_LOG_MOVE
                    ):
                        accepted = False
                if accepted:
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
            x = corrected
            lam = lam_new
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
    ok, x, _ = _newton(h, 0.0, x, max(tol * 1e-4, 1e-14), 25)
    res = scaled_residual(h, 1.0, x)
    if res >= tol:
        raise CorrectorStalled(f"endpoint residual {res:.3e} above tol {tol:g}")
    if not np.all(x != 0.0):
        raise PathDiverged("endpoint hit a coordinate hyperplane")
    return TrackedSolution(
        point=tuple(float(v) for v in x), residual=res, cell=path.cell, steps=steps
    )


def track(
    h: HomotopySystem, paths: Sequence[PathState], tol: float = 1e-8
) -> list[TrackedSolution]:
    """Continue the paths to t = 1 one by one; failures are recorded, never raised.

    Each path's status (and, on failure, message) is set in place; the
    converged endpoints are returned in path order.
    """
    solutions = []
    for path in paths:
        try:
            sol = _track_one(h, path, tol)
        except PathDiverged as exc:
            path.status = "diverged"
            path.message = str(exc)
            continue
        except CorrectorStalled as exc:
            path.status = "failed"
            path.message = str(exc)
            continue
        path.status = "converged"
        solutions.append(sol)
    return solutions
