"""The patchwork certificate: margins of circuit inequalities against log m.

A pass certifies that the coefficient point can be pushed to the toric limit
along its own lifting direction without meeting the discriminant amoeba, so
the combinatorial real-zero count survives the deformation.  A fail is
inconclusive; the test is sufficient, not necessary.

The certificate reads one ``MixedCellSet``: its cells, the circuit table of
their inequalities, and each row's value ``zeta . w`` on the lifting the
cells were enumerated on.  A margin is ``zeta . w - log(m) * |zeta|_1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import SupportSystem, build_cayley, log_abs_lifting
from .mixed_cells import MixedCellSet, enumerate_mixed_cells


@dataclass(frozen=True)
class Certificate:
    """Per-inequality margins ``<w, zeta> - log(m) * |zeta|_1``, the number
    of mixed cells, and the verdict."""

    margins: tuple[float, ...]
    m: int
    cell_count: int

    def min_margin(self) -> float:
        return min(self.margins) if self.margins else math.inf

    @property
    def verdict(self) -> bool:
        """A pass: at least one mixed cell, and every margin strictly
        positive, vacuously so with none.

        The count a pass certifies is the cells' real starts.  With no
        mixed cell the mixed volume is 0, so by Bernstein's theorem the
        system has no isolated zero in the torus and there is no count to
        certify: ``xy - 2, x^2 y^2 - 4`` (its zeros form the curve xy = 2)
        and the same supports with ``- 5`` (no zero) both fail.  A cell with
        no excluded point (a binomial system) is its own toric limit and
        passes with no margins.
        """
        return self.cell_count > 0 and self.min_margin() > 0.0


def certify(cells: MixedCellSet) -> Certificate:
    """Check every circuit inequality of ``cells`` with the log(m) slack,
    m = the number of Cayley points.

    The margins are the set's values, taken once by enumeration on its own
    lifting, less the slack.  A binomial system passes with no margins, so
    each of its paths is one Newton at the target from the binomial start,
    in log coordinates: ``solve`` on ``x^3 - 10^-320`` returns its zero,
    about 2.2e-107.
    """
    m = len(cells.lifting)
    table = cells.inequalities
    with np.errstate(all="ignore"):
        slack = math.log(m) * np.abs(table.coeffs).sum(axis=1).astype(float)
        margins = cells.values - slack
    count = len(cells.cells)
    return Certificate(margins=tuple(margins.tolist()), m=m, cell_count=count)


def certify_system(system: SupportSystem) -> tuple[Certificate, MixedCellSet]:
    """Lift by log-coefficients, enumerate cells, and certify in one shot."""
    cells = enumerate_mixed_cells(build_cayley(system), log_abs_lifting(system))
    return certify(cells), cells
