"""The patchwork certificate: margins of circuit inequalities against log m.

A pass certifies that the coefficient point can be pushed to the toric limit
along its own lifting direction without meeting the discriminant amoeba, so
the combinatorial real-zero count survives the deformation.  A fail is
inconclusive; the test is sufficient, not necessary.

The inequalities are the exact circuit table of ``mixed_cells``
(``CircuitTable``), and the margins are taken from all its rows at once:
each is ``zeta . w - log(m) * |zeta|_1``, with ``zeta . w`` the table's
own float value of the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Lifting, SupportSystem, build_cayley, log_abs_lifting
from .mixed_cells import CircuitTable, MixedCellSet, enumerate_mixed_cells


@dataclass(frozen=True)
class Certificate:
    """Per-inequality margins ``<w, zeta> - log(m) * |zeta|_1`` and the verdict."""

    margins: tuple[float, ...]
    m: int

    def min_margin(self) -> float:
        return min(self.margins) if self.margins else math.inf

    @property
    def verdict(self) -> bool:
        """A pass: every margin is strictly positive, vacuously so with none."""
        return self.min_margin() > 0.0


def certify(lifting: Lifting, table: CircuitTable) -> Certificate:
    """Check every circuit inequality with the log(m) slack, m = len(lifting).

    Margins are computed against the supplied lifting; the verdict is a pass
    exactly when all margins are strictly positive.  With no excluded points
    anywhere (every support is already an edge) the table has no rows and the
    certificate passes vacuously.  A binomial system is its own toric limit,
    so each of its paths is one Newton at the target from the binomial
    solver's start, in log coordinates: ``solve`` on ``x^3 - 10^-320``
    returns its zero, about 2.2e-107.

    The margins are read off the table all rows at once, using the values
    enumeration already took when the table is a ``MixedCellSet``'s and the
    lifting is the one it was enumerated on.
    """
    m = len(lifting)
    with np.errstate(all="ignore"):
        slack = math.log(m) * np.abs(table.coeffs).sum(axis=1).astype(float)
        margins = table.values(lifting) - slack
    return Certificate(margins=tuple(margins.tolist()), m=m)


def certify_system(system: SupportSystem) -> tuple[Certificate, MixedCellSet]:
    """Lift by log-coefficients, enumerate cells, and certify in one shot."""
    config = build_cayley(system)
    lifting = log_abs_lifting(system)
    cells = enumerate_mixed_cells(config, lifting)
    return certify(lifting, cells.inequalities), cells
