"""The patchwork certificate: margins of circuit inequalities against log m.

A pass certifies that the coefficient point can be pushed to the toric limit
along its own lifting direction without meeting the discriminant amoeba, so
the combinatorial real-zero count survives the deformation.  A fail is
inconclusive; the test is sufficient, not necessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .lattice import Lifting, SupportSystem, build_cayley, log_abs_lifting
from .mixed_cells import CircuitInequality, MixedCellSet, enumerate_mixed_cells


@dataclass(frozen=True)
class Certificate:
    """Per-inequality margins ``<w, zeta> - log(m) * |zeta|_1`` and the verdict."""

    margins: tuple[float, ...]
    verdict: bool
    m: int

    def min_margin(self) -> float:
        return min(self.margins) if self.margins else math.inf


def certify(lifting: Lifting, inequalities: Sequence[CircuitInequality]) -> Certificate:
    """Check every circuit inequality with the log(m) slack, m = len(lifting).

    Margins are computed against the supplied lifting; the verdict is a pass
    exactly when all margins are strictly positive.  With no excluded points
    anywhere (every support is already an edge) there are no inequalities:
    such systems are solved exactly by the binomial solver, tracking is a
    no-op, and the certificate passes vacuously.
    """
    m = len(lifting)
    log_m = math.log(m)
    margins = tuple(
        float(zeta.dot(lifting.values)) - log_m * zeta.l1() for zeta in inequalities
    )
    return Certificate(
        margins=margins, verdict=min(margins, default=math.inf) > 0.0, m=m
    )


def certify_system(system: SupportSystem) -> tuple[Certificate, MixedCellSet]:
    """Lift by log-coefficients, enumerate cells, and certify in one shot."""
    config = build_cayley(system)
    lifting = log_abs_lifting(system)
    cells = enumerate_mixed_cells(config, lifting)
    return certify(lifting, cells.inequalities), cells
