"""End-to-end solve: lift, enumerate cells, certify, solve binomials, track."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .binomial import RealOrthantSolution, binomial_from_cell, solve_real
from .certificate import Certificate, certify, vacuous_certificate
from .errors import RealHomotopyError
from .lattice import SupportSystem, build_cayley, log_abs_lifting
from .mixed_cells import MixedCellSet, enumerate_mixed_cells, mixed_cell_count_bound
from .tracker import (
    HomotopySystem,
    PathState,
    TrackedSolution,
    make_homotopy,
    make_path,
    select_t0,
    track,
)


@dataclass(frozen=True)
class SolverConfig:
    t0: float | None = None
    tol: float = 1e-8
    force: bool = False
    threads: int | None = None


@dataclass
class PathFailure:
    cell_index: int
    path_index: int
    status: str
    message: str


@dataclass
class SolveReport:
    """Structured outcome of one solve, stage by stage."""

    cells: MixedCellSet | None = None
    certificate: Certificate | None = None
    start_solutions: list[int] = field(default_factory=list)
    solutions: list[TrackedSolution] = field(default_factory=list)
    failures: list[PathFailure] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    uncertified: bool = False

    @property
    def verdict(self) -> bool:
        return self.certificate.verdict if self.certificate else False


def _tag(exc: Exception, stage: str) -> Exception:
    if isinstance(exc, RealHomotopyError) and not getattr(exc, "stage", None):
        exc.stage = stage
    return exc


def solve(system: SupportSystem, config: SolverConfig | None = None) -> SolveReport:
    """Run all stages on a system.

    A certificate failure is a structured outcome: the report comes back with
    the cells and margins populated and no solutions, unless ``force`` asks
    for heuristic tracking, in which case the result is marked uncertified.
    """
    cfg = config or SolverConfig()
    report = SolveReport()

    clock = time.perf_counter
    t = clock()
    cayley = build_cayley(system)
    lifting = log_abs_lifting(system)
    report.timings["initialization"] = clock() - t

    t = clock()
    try:
        cells = enumerate_mixed_cells(cayley, lifting)
    except RealHomotopyError as exc:
        raise _tag(exc, "mixed_cells")
    report.cells = cells
    report.timings["mixed_cells"] = clock() - t

    t = clock()
    report.certificate = vacuous_certificate(cells.inequalities, cayley.m) or certify(
        lifting, cells.inequalities, cayley.m
    )
    report.timings["certificate"] = clock() - t

    if not report.certificate.verdict and not cfg.force:
        report.timings["tracking"] = 0.0
        return report
    report.uncertified = not report.certificate.verdict

    t = clock()
    homotopy: HomotopySystem | None = None
    paths: list[PathState] = []
    cell_starts: list[list[RealOrthantSolution]] = []
    for cell in cells.cells:
        try:
            starts = solve_real(binomial_from_cell(cell, system))
        except RealHomotopyError as exc:
            raise _tag(exc, "start_systems")
        cell_starts.append(starts)
        report.start_solutions.append(len(starts))

    t0s: list[float] = []
    for cell, starts in zip(cells.cells, cell_starts):
        if not starts:
            t0s.append(0.0)
            continue
        if homotopy is None:
            homotopy = make_homotopy(system, lifting, t_start=cfg.t0 or 0.1)
        t0s.append(cfg.t0 if cfg.t0 is not None else select_t0(homotopy, cell, starts))
    if homotopy is not None:
        for (cell, starts), t0 in zip(zip(cells.cells, cell_starts), t0s):
            for sol in starts:
                paths.append(make_path(cell, sol, t0))
        solutions = track(homotopy, paths, tol=cfg.tol, threads=cfg.threads)
        report.solutions = solutions
        path_idx = 0
        for ci, starts in enumerate(cell_starts):
            for _ in starts:
                p = paths[path_idx]
                if p.status != "converged":
                    report.failures.append(
                        PathFailure(
                            cell_index=ci,
                            path_index=path_idx,
                            status=p.status,
                            message=p.message,
                        )
                    )
                path_idx += 1
    report.timings["tracking"] = clock() - t

    n = system.n
    t_max = max(len(s) for s in system.supports)
    bound = mixed_cell_count_bound(n, max(t_max, 2))
    if len(report.solutions) > bound:
        raise AssertionError(
            f"{len(report.solutions)} solutions exceed the fewnomial bound {bound}"
        )
    return report
