"""Real zeros of sparse polynomial systems by toric deformation.

The solver certifies that the coefficient point sits in an unbounded
component of the complement of the discriminant amoeba (the patchwork
certificate) and, when it does, tracks exactly the real solution paths from
binomial systems at the toric limit to the target system.
"""

from .binomial import (
    BinomialSystem,
    RealOrthantSolution,
    binomial_from_cell,
    real_orthants,
    solve_real,
)
from .certificate import Certificate, certify, certify_system
from .errors import (
    EmptySupport,
    RealHomotopyError,
    SingularExponentMatrix,
    TieDegenerate,
)
from .lattice import (
    CayleyConfig,
    Lifting,
    SupportSet,
    SupportSystem,
    build_cayley,
    log_abs_lifting,
    support_set,
    support_system,
)
from .mixed_cells import (
    CircuitTable,
    MixedCell,
    MixedCellSet,
    circuit_inequalities,
    enumerate_mixed_cells,
    mixed_cell_count_bound,
)
from .pipeline import SolveReport, SolverConfig, solve
from .tracker import make_homotopy, make_path, track

__version__ = "0.1.0"

__all__ = [
    "BinomialSystem",
    "CayleyConfig",
    "Certificate",
    "CircuitTable",
    "EmptySupport",
    "Lifting",
    "MixedCell",
    "MixedCellSet",
    "RealHomotopyError",
    "RealOrthantSolution",
    "SingularExponentMatrix",
    "SolveReport",
    "SolverConfig",
    "SupportSet",
    "SupportSystem",
    "TieDegenerate",
    "binomial_from_cell",
    "build_cayley",
    "certify",
    "certify_system",
    "circuit_inequalities",
    "enumerate_mixed_cells",
    "log_abs_lifting",
    "make_homotopy",
    "make_path",
    "mixed_cell_count_bound",
    "real_orthants",
    "solve",
    "solve_real",
    "support_set",
    "support_system",
    "track",
]
