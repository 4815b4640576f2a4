"""Gale duality diagnostics: the integer kernel of the homogenized Cayley points.

Nothing in the certificate path depends on this module; it exists to make the
geometry behind the certificate directly testable.  The certificate's own
inequalities are circuits, and a circuit is its own one-column Gale dual, so
the reduced discriminant's contour offset ``sum_i zeta_i log|zeta_i|`` of a
circuit reads straight off the circuit table's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateConfiguration
from .lattice import CayleyConfig, kernel_basis


@dataclass(frozen=True)
class GaleDual:
    """Integer kernel basis of the homogenized configuration, rows per point.

    Shape is m x (m - rank); every column sums to zero because the all-ones
    row sits in the homogenized row space.
    """

    rows: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def codim(self) -> int:
        return len(self.rows[0]) if self.rows and self.rows[0] else 0


def gale_dual(config: CayleyConfig) -> GaleDual:
    """Exact lattice kernel of the homogenized Cayley matrix.

    Raises DegenerateConfiguration when the points do not affinely span, i.e.
    the homogenized rank falls below 2n.
    """
    dim = 2 * config.n - 1
    a_hom = [[p[r] for p in config.points] for r in range(dim)]
    a_hom.append([1] * config.m)
    basis, rank = kernel_basis(a_hom)
    if rank < dim + 1:
        raise DegenerateConfiguration(
            f"homogenized rank {rank} < {dim + 1}; points do not affinely span"
        )
    rows = tuple(
        tuple(basis[j][i] for j in range(len(basis))) for i in range(config.m)
    )
    return GaleDual(rows=rows)
