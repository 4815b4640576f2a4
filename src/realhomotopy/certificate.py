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

from .errors import EmptyCertificate
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


def vacuous_certificate(
    inequalities: Sequence[CircuitInequality], m: int
) -> Certificate | None:
    """The pass of a configuration with nothing to test, else None.

    With no excluded points anywhere (every support is already an edge) there
    are no circuit inequalities: such systems are solved exactly by the
    binomial solver, tracking is a no-op, and the certificate passes
    vacuously.  Callers fall back to ``certify`` when this returns None.
    """
    if inequalities:
        return None
    return Certificate(margins=(), verdict=True, m=m)


def certify(
    lifting: Lifting, inequalities: Sequence[CircuitInequality], m: int
) -> Certificate:
    """Check every circuit inequality with the log(m) slack.

    Margins are computed against the supplied lifting; the verdict is a pass
    exactly when all margins are strictly positive.
    """
    if not inequalities:
        raise EmptyCertificate("no circuit inequalities to certify against")
    log_m = math.log(m)
    margins = tuple(
        float(zeta.dot(lifting.values)) - log_m * zeta.l1() for zeta in inequalities
    )
    return Certificate(margins=margins, verdict=min(margins) > 0.0, m=m)


def certify_system(system: SupportSystem) -> tuple[Certificate, MixedCellSet]:
    """Lift by log-coefficients, enumerate cells, and certify in one shot.

    A system without circuit inequalities passes vacuously (see
    ``vacuous_certificate``).
    """
    config = build_cayley(system)
    lifting = log_abs_lifting(system)
    cells = enumerate_mixed_cells(config, lifting)
    cert = vacuous_certificate(cells.inequalities, config.m) or certify(
        lifting, cells.inequalities, config.m
    )
    return cert, cells
