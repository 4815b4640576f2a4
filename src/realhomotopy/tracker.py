"""Real path tracking from the toric limit to the target system.

The deformation multiplies the coefficient of each term by ``t**(w_max - w)``,
where w is the term's log-coefficient lifting and w_max the largest lifting in
its equation.  At t = 1 this is exactly the input system; as t -> 0 each
equation degenerates to the two terms of a mixed cell's edge.  Paths start on
the cell's truncated branch ``x = sol * t**normal``, as in the polyhedral
homotopy of Huber and Sturmfels (Math. Comp. 64, 1995), and are continued in
the log parameter ``lam = -log t``, entirely in real arithmetic: a cubic
Hermite predictor through the last two points and their Davidenko tangents,
doubled steps sized down to their predicted move, and a Newton corrector.  A
path keeps the orthant ``s`` of its start and is tracked in ``u = log|x|``
(see ``_kernels``), where it can neither cross a coordinate hyperplane nor
overflow.

The start is formed from the cell and the orthant alone.  On a cell's edge
``(p, q)`` the binomial solution satisfies ``D log|sol| = w_q - w_p``, and
with the lifting ``w = log|c|`` the normal satisfies ``D normal = w_p - w_q``,
so ``log|sol| = -normal``: the truncated branch is the line
``u = -(1 + lam) * normal``.  A path starts on it at ``lam = -log t0``
(``make_path``, from the orthant that ``binomial.real_orthants`` gives), so
no start is ever formed in x and one whose x would overflow or underflow is
tracked like any other.  A path ends in the same form: a ``TrackedSolution``
carries the orthant ``signs`` and ``logs = log|x|``, and ``track`` tells
endpoints apart by these.  x itself is formed
once, for ``TrackedSolution.point``, where it is ``inf`` or ``0.0`` if the
zero lies beyond the float range.

``select_t0`` is the one rule for t0.  A certificate pass keeps each
orthant's real-zero count from the toric limit to the target, so certified
paths start at ``t0 = 1`` (``u = -normal``): no step, only the endpoint
polish, and ``track`` still fails any two that end on one zero.  Every other
path starts at ``FORCED_T0 = 1e-8``, where the toric limit holds (as in the
paper and in Huber and Sturmfels), and the start correction pulls it onto
its path.

Steps are sized in the frame of the path's cell.  The truncated branch moves
``u`` by ``-normal`` per unit lam, a drift known in advance, so both the cap on
a step's predicted move and the guard on its corrected move measure the move
with that drift taken out.  A path that follows its truncated branch then
takes the same few steps at any coefficient scale, and steps shrink only where
the path bends away from its branch.

No corrector work is spent where it cannot succeed.  A step corrector stops
on its own contraction: as soon as an iterate after the first fails to cut
the residual fourfold, the step is halved; one that keeps contracting has
``CORRECTOR_ITERS`` = 4 iterates (Deuflhard, *Newton Methods for Nonlinear
Problems*, 2004).  Without a certificate a real path can end where it meets
another real branch and both turn complex (a fold; Li and Wang, Math. Comp.
60, 1993), and halving toward such a turning point only spends correctors.
So after a step's second failed corrector, and again after its fourth
before the path gives up, ``_fold`` locates the turning point directly
(Allgower and Georg, *Introduction to Numerical Continuation Methods*),
starting from the step's best near miss; when it confirms one inside the
failing span, the path fails at once with the message ``fold at lam=...``.

At n = 2 a Newton iterate is mostly numpy call overhead, so each costs one
``_kernels.jac_dlam`` call and one ``_solve``, and the norms and finiteness
tests on n-vectors read Python floats (``_max_norm``), as do the predictor
and the move guard, in numpy's operation order and so bit for bit.
``_solve`` takes a 2 x 2 system by Cramer's rule on Python floats in about
1.1 us, where ``np.linalg.solve`` spends 5 to 10 us, about 2 us of it in the
LAPACK gufunc and the rest in its wrapper; other n keep ``np.linalg.solve``,
as does ``_fold``'s bordered system.  Cramer's rule is forward stable at
n = 2 (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
1.10.1), but it rounds differently from LAPACK, and that is harmless here:

- a solve's rounding moves only the Newton iterates, never the zero they
  converge to;
- a step is still accepted on the kernel's residual and on the move guard,
  and the endgame polish still ends below ``tol * 1e-4``;
- Python float arithmetic warns of nothing: overflow gives inf and an
  undefined result NaN, both of which ``_max_norm`` reads as inf.  The one
  operation that would raise, a division by an exactly zero determinant,
  raises instead the ``LinAlgError`` that every caller already handles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .binomial import sign_power_product
from .lattice import Lifting, SupportSystem, sign
from .mixed_cells import MixedCell

CORRECTOR_TOL = 1e-10
CORRECTOR_ITERS = 4
# A step corrector stops at the first iterate that fails to cut the residual
# to this share of the last one (see ``_newton``).
CONTRACTION = 0.25
# Iterate budget of the turning-point Newton (``_fold``), and the largest
# residual at which a step's failed corrector is a near miss: the fold test
# starts from the best iterate of the step's lowest-residual near miss.
FOLD_ITERS = 8
FOLD_START_RESIDUAL = 0.1
MIN_STEP = 1e-14
MAX_STEPS = 50_000
# Largest allowed move of any log-coordinate in one accepted step, measured
# after taking out the drift ``-step * normal`` of the path's truncated branch.
# The drift needs no cap: the corrector can only reach a branch in the path's
# own orthant, and the truncated binomial system of a cell has at most one real
# solution per orthant, so no other branch of the same cell lies near.  Branches
# of two cells i and j separate like ``(1 + lam) |normal_i - normal_j|``,
# faster the nearer the toric limit.  What remains to cap is the path's bending
# away from its branch, to a factor e per step.  The cap is no proof against
# path jumping: ``track`` fails any two paths that end on one zero, and the
# tests pin exact zero counts on the forced corpus.
MAX_LOG_MOVE = 1.0
# Endpoints in one orthant whose log|x| agree this closely in every
# coordinate count as one zero reached twice (path jumping).
DISTINCT_LOG_TOL = 1e-6
# The t of every forced path's start (``select_t0``): small enough that the
# toric limit holds, ``lam0 = -log FORCED_T0`` of about 18.4.
FORCED_T0 = 1e-8


@dataclass(frozen=True, eq=False)
class HomotopySystem:
    """The deformed system as flattened term arrays for the kernels.

    ``logc`` and ``signs`` hold ``log|c|`` and ``sign(c)`` per term.  ``vexp``
    lists the per-term deformation exponents over all Cayley points in
    block-major order; all entries are nonnegative and each equation has at
    least one zero entry (its dominant term).  ``points`` holds the exponents
    as Python ints, whose parities give the term signs (``term_signs``), and
    ``exps`` the same exponents as floats; ``starts``, ``eq`` and ``weights``
    are the kernels' ``_kernels.tables``.
    """

    logc: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)
    points: tuple[tuple[int, ...], ...] = field(repr=False)
    exps: np.ndarray = field(repr=False)
    vexp: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    eq: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def make_homotopy(system: SupportSystem, lifting: Lifting) -> HomotopySystem:
    """Assemble the deformation induced by a lifting.

    ``logc`` is the lifting itself, which is ``log|c|``
    (``lattice.log_abs_lifting``), and ``signs`` is ``lattice.sign`` of each
    coefficient.  Exponents are normalized per equation so the dominant term
    carries t**0; per-equation shifts only rescale equations and leave the
    zero set alone.
    """
    w = lifting.values
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
    signs = [sign(c) for cs in system.coefficients for c in cs]
    exps_f = np.array(exps, dtype=np.float64)
    vexp_f = np.array(vexp, dtype=np.float64)
    offs_i = np.array(offs, dtype=np.int64)
    starts, eq, weights = _kernels.tables(exps_f, vexp_f, offs_i)
    return HomotopySystem(
        logc=np.array(w, dtype=np.float64),
        signs=np.array(signs, dtype=np.float64),
        points=tuple(exps),
        exps=exps_f,
        vexp=vexp_f,
        starts=starts,
        eq=eq,
        weights=weights,
    )


@dataclass
class PathState:
    """Mutable tracking state of one start solution.

    The path starts at ``lam`` from ``u = log|x|`` in the orthant ``signs``.
    ``normal`` is the float normal of the start's cell: the truncated branch
    moves u by ``-normal`` per unit lam.
    """

    lam: float
    u: np.ndarray
    signs: tuple[int, ...]
    normal: np.ndarray
    status: str = "tracking"
    message: str = ""


@dataclass(frozen=True)
class TrackedSolution:
    """A converged endpoint with its scaled residual and accepted step count.

    The zero is ``x_j = signs[j] * exp(logs[j])``; ``point`` is that x in
    floats, with ``inf`` or ``0.0`` where it leaves the float range.
    """

    point: tuple[float, ...]
    residual: float
    steps: int
    signs: tuple[int, ...]
    logs: tuple[float, ...]


def make_path(cell: MixedCell, signs: tuple[int, ...], t0: float) -> PathState:
    """The path of a real start of ``cell`` at t0: the truncated branch point
    ``u = -(1 + lam) * normal`` at ``lam = -log t0``, in the orthant ``signs``.

    The orthant is all a start adds to its cell: the start's ``log|x|`` is
    ``-normal`` (see the module docstring)."""
    normal = np.array(cell.normal, dtype=np.float64)
    lam = -math.log(t0)
    return PathState(lam=lam, u=-(1.0 + lam) * normal, signs=signs, normal=normal)


def term_signs(h: HomotopySystem, orthant) -> np.ndarray:
    """The term signs ``sign(c_k) * prod_j s_j**points[k][j]`` of h in the
    orthant ``s`` of a point, from the parity of each exact exponent
    (``binomial.sign_power_product``): a float exponent at or above 2**53
    has lost its parity."""
    return h.signs * [sign_power_product(orthant, p) for p in h.points]


def select_t0(certified: bool) -> float:
    """The t at which a solve's paths start: the target, ``t0 = 1``, on a
    certificate pass, else ``FORCED_T0`` (see the module docstring)."""
    return 1.0 if certified else FORCED_T0


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


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^-1 b``, by Cramer's rule on Python floats at n = 2.

    An exactly zero determinant raises ``np.linalg.LinAlgError``, as LAPACK
    does on a singular matrix; a NaN or infinite entry gives a NaN or
    infinite result, never a warning.  Every other n is ``np.linalg.solve``.
    """
    if a.shape != (2, 2):
        return np.linalg.solve(a, b)
    (a00, a01), (a10, a11) = a.tolist()
    b0, b1 = b.tolist()
    det = a00 * a11 - a01 * a10
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.array(((a11 * b0 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det))


def _newton(
    h: HomotopySystem,
    weights: np.ndarray,
    lam: float,
    u: np.ndarray,
    ctol: float,
    max_iters: int,
    contract: bool = False,
    table: np.ndarray | None = None,
):
    """Newton in u at fixed lam with one fused kernel call and one solve per
    iterate; ``weights`` is ``h.weights`` signed for the path's orthant.
    ``table``, if given, is the kernel table at (lam, u), and the first
    iterate reads it in place of a kernel call.

    With ``contract``, as for the step correctors, Newton also stops at the
    first iterate after the first that fails to cut the residual to
    ``CONTRACTION`` times the last one, and the caller halves the step.  The
    first iterate is exempt: from a predicted point it may even raise the
    residual of a corrector that converges (0.049 to 0.089 on a cubic/conic
    step).  The cut column of ``tests/reference_reports.py`` replays each
    cut corrector as a plain Newton of ``CORRECTOR_ITERS`` iterates, so a
    cut that would have converged shows there.  The start correction and
    the endgame polish keep their full budgets; applied to them as well,
    the rule lost converged forced paths.

    Returns the lowest residual of any iterate evaluated (``_max_norm``, so
    never NaN), that iterate and the kernel table ``[h | J_u | dh/dlam]`` at
    it, the earliest on a tie: when the tracker accepts that iterate, its
    tangent for the predictor comes from this table.  A Newton that stops
    below ``ctol`` stops at that iterate; one that stops above it may have
    passed a better iterate than its last, which the endpoint polish keeps.
    """
    lam_vexp = lam * h.vexp
    it = 0
    last = math.inf
    best = None
    while True:
        if table is None:
            table = _kernels.jac_dlam(
                h.logc, lam_vexp, h.exps, h.starts, h.eq, weights, u
            )
        hv = table[:, 0]
        res = _max_norm(hv.tolist())
        if best is None or res < best[0]:
            best = res, u, table
        if res < ctol or it == max_iters or (
            contract and it > 1 and res > CONTRACTION * last
        ):
            break
        last = res
        try:
            du = _solve(table[:, 1:-1], hv)
        except np.linalg.LinAlgError:
            break
        if _max_norm(du.tolist()) == math.inf:
            break
        u = u - du
        table = None
        it += 1
    return best


def _predict(lam: float, u: np.ndarray, udot: np.ndarray, prev, step: float):
    """u at ``lam - step`` on the cubic Hermite interpolant in lam through the last
    point ``prev = (lam0, u0, udot0)`` and (lam, u, udot); the Euler step if None.

    Evaluated on ``tolist`` Python floats in numpy's operation order, so the
    result is bit for bit the array expression's, without its n-vector
    temporaries."""
    u, udot = u.tolist(), udot.tolist()
    if prev is None:
        return np.array([a - step * d for a, d in zip(u, udot)])
    lam0, u0, udot0 = prev
    gap = lam0 - lam
    gap2, step2, reach = gap**2, step**2, step + gap
    guess = []
    for a, d, a0, d0 in zip(u, udot, u0.tolist(), udot0.tolist()):
        slope = (a0 - a) / gap
        curve = (slope - d) / gap
        cubic = (d0 - 2.0 * slope + d) / gap2
        guess.append((a - step * d) + step2 * (curve - reach * cubic))
    return np.array(guess)


def _fold(h, weights, start, lam, u, lam_low, normal):
    """The lam of a simple turning point (fold) that the path at (lam, u)
    reaches above ``lam_low``, or None if none is confirmed.

    At a fold two real branches meet and turn complex, so the path has no
    real continuation below it.  Newton on the turning-point system
    ``h(v, mu) = 0``, ``J_u(v, mu) phi = 0``, ``ell . phi = 1`` (Moore and
    Spence, SIAM J. Numer. Anal. 17, 1980) locates it directly; the system is
    regular at a simple fold, where the corrector in u at fixed lam is not.
    Newton starts from ``start = (mu, v, table)`` with ``phi = ell``, J_u's
    most nearly null direction there: the tangent ``J_u^-1 dh/dlam`` after
    one step of inverse iteration on ``J_u^T J_u``.  (Only linear solves are
    used, ``_solve`` for the n x n ones and ``np.linalg.solve`` for the
    bordered system; an SVD added its LAPACK code pages to the benchmark's
    peak RSS.)
    An iterate is one ``jac_dlam`` call and one solve: the signed weights,
    extended by a copy times ``exps . phi``, give ``[h | J_u | dh/dlam]`` and
    beside it ``[J_u phi | d(J_u phi)/du | d(J_u phi)/dlam]``.  Newton stops
    when its residual fails to fall or after ``FOLD_ITERS`` iterates.

    A fold found this way is the path's when it lies in ``(lam_low, lam)``,
    within ``MAX_LOG_MOVE`` of the path in the cell's frame (the guard on an
    accepted step), and on the side the path comes from: the two branches
    that meet there exist above its lam.  With ``psi = J_u^-T phi``, which
    points along the left null vector at a simple fold, that is
    ``psi . J_uu[phi, phi]`` and ``psi . dh/dlam`` of opposite sign.
    """
    mu, v, table = start
    n = v.size
    jac_u = table[:, 1:-1]
    try:
        ell = _solve(jac_u, -table[:, -1])
        ell = _solve(jac_u, _solve(jac_u.T, ell))
    except np.linalg.LinAlgError:
        return None
    size = _max_norm(ell.tolist())
    if not 0.0 < size < math.inf:
        return None
    ell = ell / size
    ell = ell / math.sqrt(float(ell @ ell))
    phi = ell
    system = np.zeros((2 * n + 1, 2 * n + 1))
    system[2 * n, n + 1 :] = ell
    rhs = np.empty(2 * n + 1)
    last = math.inf
    for it in range(FOLD_ITERS + 1):
        both = np.hstack((weights, weights * (h.exps @ phi)[:, None]))
        t = _kernels.jac_dlam(h.logc, mu * h.vexp, h.exps, h.starts, h.eq, both, v)
        rhs[:n] = t[:, 0]
        rhs[n : 2 * n] = t[:, n + 2]
        rhs[2 * n] = float(ell @ phi) - 1.0
        res = _max_norm(rhs.tolist())
        if res < CORRECTOR_TOL:
            break
        if it == FOLD_ITERS or not res < last:
            return None
        last = res
        system[:n, : n + 1] = t[:, 1 : n + 2]
        system[n : 2 * n, : n + 1] = t[:, n + 3 :]
        system[n : 2 * n, n + 1 :] = t[:, 1 : n + 1]
        try:
            delta = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:
            return None
        v = v - delta[:n]
        mu = mu - float(delta[n])
        phi = phi - delta[n + 1 :]
    if not lam_low < mu < lam:
        return None
    if _max_norm((v - u - (lam - mu) * normal).tolist()) > MAX_LOG_MOVE:
        return None
    try:
        psi = _solve(t[:, 1 : n + 1].T, phi)
    except np.linalg.LinAlgError:
        return None
    curvature = float(psi @ t[:, n + 3 : 2 * n + 3] @ phi)
    if not curvature * float(psi @ t[:, n + 1]) < 0.0:
        return None
    return mu


class _PathFailed(Exception):
    """How ``_track_one`` ends a path that does not converge: its ``args``
    are the status ("diverged" on a step size underflow, "failed"
    otherwise) and the message, which ``track`` records on the path."""


def _track_one(h: HomotopySystem, path: PathState, tol: float) -> TrackedSolution:
    """Continue one path from its start at ``path.lam`` to lam = 0; at lam = 0
    (a certified path) only the endpoint polish runs.  The endpoint is the
    polish's lowest-residual iterate, which must be below ``tol``.

    Each step doubles the last accepted one, bounded by the remaining lam and
    by its predicted move in the cell's frame, ``step * max|udot + normal|``.
    A step is accepted when the corrector converges and
    ``max|corrected - u - step * normal|`` stays within ``MAX_LOG_MOVE``.  A
    singular or non-finite tangent, or a fourth corrector failure in one
    step, fails the path.  After the second and after the fourth failure in
    one step, ``_fold`` looks for a turning point below lam and above the
    first failed attempt's lam.  It starts from the best iterate of the
    step's failed attempt of lowest residual if that is a near miss (below
    ``FOLD_START_RESIDUAL``), else from the accepted point.  A confirmed fold
    fails the path at once; otherwise the step goes on halving, or after the
    fourth failure fails with "corrector failed after 3 halvings".  Norms,
    finiteness tests and the corrected move on n-vectors read Python floats
    (``_max_norm``)."""
    weights = term_signs(h, path.signs)[:, None] * h.weights
    lam, u, normal = path.lam, path.u, path.normal
    drift = normal.tolist()
    steps = 0
    table = None
    # Pull the truncated branch point onto the actual path before stepping.
    if lam > 0.0:
        res, u, table = _newton(h, weights, lam, u, CORRECTOR_TOL, 12)
        if res >= CORRECTOR_TOL:
            raise _PathFailed("failed", "start point correction failed")
    dlam = 0.1 * lam
    prev = None
    while lam > 0.0:
        # The tangent at (lam, u) comes from the last correction's Jacobian
        # and lam-derivative; every halving below reuses the same predictor.
        try:
            udot = _solve(table[:, 1:-1], -table[:, -1])
            speed = _max_norm((udot + normal).tolist())
        except np.linalg.LinAlgError:
            speed = math.inf
        if speed == math.inf:
            raise _PathFailed("failed", f"tangent solve failed at lam={lam:.3e}")
        step = min(dlam, lam)
        # Size the step by its predicted move off the branch's drift.  The 0.9
        # leaves room for the predictor's error, so the corrected move rarely
        # overshoots the cap.
        if step * speed > 0.9 * MAX_LOG_MOVE:
            step = 0.9 * MAX_LOG_MOVE / speed
        newton_failures = 0
        # The fold test's start: the step's best near miss, else the path point.
        start, best = (lam, u, table), FOLD_START_RESIDUAL
        while True:
            lam_new = lam - step
            guess = _predict(lam, u, udot, prev, step)
            res, corrected, corrected_table = _newton(
                h,
                weights,
                lam_new,
                guess,
                CORRECTOR_TOL,
                CORRECTOR_ITERS,
                contract=True,
            )
            converged = res < CORRECTOR_TOL
            # An oversized move off the branch's drift marks an overlong step.
            if converged:
                moved = zip(corrected.tolist(), u.tolist(), drift)
                if _max_norm([c - a - step * z for c, a, z in moved]) <= MAX_LOG_MOVE:
                    break
            else:
                newton_failures += 1
                if newton_failures == 1:
                    lam_low = lam_new
                # A near miss lies closer to a fold than the path point.
                if res < best:
                    start, best = (lam_new, corrected, corrected_table), res
                if newton_failures in (2, 4):
                    fold = _fold(h, weights, start, lam, u, lam_low, normal)
                    if fold is not None:
                        raise _PathFailed("failed", f"fold at lam={fold:.6e}")
                if newton_failures > 3:
                    raise _PathFailed(
                        "failed", f"corrector failed after 3 halvings at lam={lam:.3e}"
                    )
            step *= 0.5
            if step < MIN_STEP:
                raise _PathFailed("diverged", "step size underflow")
        prev = (lam, u, udot)
        u = corrected
        lam = lam_new
        table = corrected_table
        steps += 1
        if steps > MAX_STEPS:
            raise _PathFailed("failed", "step budget exhausted")
        dlam = 2.0 * step
    # Polish toward well below tol; the endpoint is the polish's best iterate.
    # A path that stepped ended its last step at lam = 0.0 exactly (that
    # step equals the lam left), so ``table`` is already the kernel table at
    # (0.0, u), bit for bit; a certified path, which takes no step, has none.
    polish_tol = min(tol, max(tol * 1e-4, 1e-14))
    res, u, _ = _newton(h, weights, 0.0, u, polish_tol, 25, table=table)
    if res >= tol:
        message = f"endpoint residual {res:.3e} above tol {tol:g}"
        raise _PathFailed("failed", message)
    with np.errstate(over="ignore", under="ignore"):
        x = np.array(path.signs, dtype=np.float64) * np.exp(u)
    return TrackedSolution(tuple(x.tolist()), res, steps, path.signs, tuple(u.tolist()))


def _coinciding(solutions: Sequence[TrackedSolution]):
    """Pairs (a, b), a < b, of solutions with equal ``signs`` whose ``logs``
    agree within ``DISTINCT_LOG_TOL`` in every coordinate, on Python floats: a
    solve has a few endpoints, and numpy's calls per row cost more than the
    comparisons."""
    for a, sa in enumerate(solutions):
        for b, sb in enumerate(solutions[a + 1 :], a + 1):
            if sa.signs == sb.signs and all(
                abs(p - q) <= DISTINCT_LOG_TOL for p, q in zip(sa.logs, sb.logs)
            ):
                yield a, b


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
    # Where ``exps . u`` leaves the float range (exponents near 10**200), the
    # kernels give inf or NaN, which ``_max_norm`` reads as an infinite
    # residual and the path records as a failure; numpy need not warn too.
    with np.errstate(over="ignore", invalid="ignore"):
        for k, path in enumerate(paths):
            try:
                converged.append((k, _track_one(h, path, tol)))
                path.status = "converged"
            except _PathFailed as exc:
                path.status, path.message = exc.args
    clashes: dict[int, int] = {}
    for a, b in _coinciding([s for _, s in converged]):
        ka, kb = converged[a][0], converged[b][0]
        clashes.setdefault(ka, kb)
        clashes.setdefault(kb, ka)
    for k, other in clashes.items():
        paths[k].status = "failed"
        paths[k].message = f"endpoint coincides with path {other}"
    return [s for k, s in converged if k not in clashes]
