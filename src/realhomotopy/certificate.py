"""The patchwork certificate: margins of circuit inequalities against log m.

A pass certifies that the coefficient point can be pushed to the toric limit
along its own lifting direction without meeting the discriminant amoeba, so
the combinatorial real-zero count survives the deformation.  A fail is
inconclusive; the test is sufficient, not necessary.

The margins come from the exact circuit table of ``mixed_cells``
(``CircuitTable``), every row at once, and equal bit for bit the
per-inequality ``float(zeta . w) - log(m) * |zeta|_1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lattice import Lifting, SupportSystem, build_cayley, log_abs_lifting
from .mixed_cells import (
    CircuitInequality,
    CircuitTable,
    MixedCellSet,
    enumerate_mixed_cells,
)


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

    The margins are read off the inequalities' ``CircuitTable`` (the one a
    ``MixedCellSet`` carries is used as it is, with the values enumeration
    already took on this lifting), all rows at once: each row's ``zeta . w``
    adds its terms column by column in the order of
    ``CircuitInequality.dot``, so every margin is bit for bit
    ``float(zeta.dot(w)) - log(m) * zeta.l1()``.
    """
    m = len(lifting)
    table = CircuitTable.of(inequalities)
    with np.errstate(all="ignore"):
        margins = table.values(lifting).astype(float)
        margins -= math.log(m) * np.abs(table.coeffs).sum(axis=1).astype(float)
    margins = tuple(margins.tolist())
    return Certificate(
        margins=margins, verdict=min(margins, default=math.inf) > 0.0, m=m
    )


def certify_system(system: SupportSystem) -> tuple[Certificate, MixedCellSet]:
    """Lift by log-coefficients, enumerate cells, and certify in one shot."""
    config = build_cayley(system)
    lifting = log_abs_lifting(system)
    cells = enumerate_mixed_cells(config, lifting)
    return certify(lifting, cells.inequalities), cells
