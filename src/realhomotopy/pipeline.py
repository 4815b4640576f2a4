"""End-to-end solve: lift, enumerate cells, certify, start, track.

The start stage reads only the orthant of each cell's real starts
(``binomial.real_orthants``): a path enters its cell's truncated branch from
the cell's normal and that orthant (``tracker.make_path``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .binomial import real_orthants
from .certificate import Certificate, certify
from .errors import RealHomotopyError
from .lattice import SupportSystem, build_cayley, log_abs_lifting
from .mixed_cells import MixedCellSet, enumerate_mixed_cells, mixed_cell_count_bound
from .tracker import PathState, make_homotopy, make_path, select_t0, track

# Unused here: perfbench/tracing.py's SPANS wraps these names in this module
# until ROADMAP item 1a wraps ``real_orthants`` instead.
from .binomial import binomial_from_cell, solve_real  # noqa: F401


@dataclass(frozen=True)
class SolverConfig:
    """Endpoint tolerance and forced tracking.

    The start t0 is not an option: ``tracker.select_t0`` starts certified
    paths at t0 = 1 and forced ones at ``tracker.FORCED_T0`` = 1e-8.
    """

    tol: float = 1e-8
    force: bool = False


@dataclass
class SolveReport:
    """Structured outcome of one solve, stage by stage.  ``solutions`` and
    ``failures`` hold the converged and the failed ``tracker.PathState``
    records, each in path order: together every path once."""

    cells: MixedCellSet | None = None
    certificate: Certificate | None = None
    start_solutions: list[int] = field(default_factory=list)
    solutions: list[PathState] = field(default_factory=list)
    failures: list[PathState] = field(default_factory=list)
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
    if not 0.0 < cfg.tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {cfg.tol!r}")
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
    report.certificate = certify(cells)
    report.timings["certificate"] = clock() - t

    if not report.certificate.verdict and not cfg.force:
        report.timings["tracking"] = 0.0
        return report
    report.uncertified = not report.certificate.verdict

    t = clock()
    cell_orthants = [real_orthants(cell, system) for cell in cells.cells]
    report.start_solutions = [len(orthants) for orthants in cell_orthants]

    if any(cell_orthants):
        homotopy = make_homotopy(system, lifting)
        t0 = select_t0(report.verdict)
        paths: list[PathState] = []
        for ci, (cell, orthants) in enumerate(zip(cells.cells, cell_orthants)):
            for signs in orthants:
                paths.append(make_path(cell, signs, t0, ci, len(paths)))
        report.solutions = track(homotopy, paths, tol=cfg.tol)
        report.failures = [p for p in paths if p.status != "converged"]
    report.timings["tracking"] = clock() - t

    n = system.n
    t_max = max(len(s) for s in system.supports)
    bound = mixed_cell_count_bound(n, max(t_max, 2))
    if len(report.solutions) > bound:
        raise AssertionError(
            f"{len(report.solutions)} solutions exceed the fewnomial bound {bound}"
        )
    return report
