"""Real zeros of sparse polynomial systems by toric deformation.

The solver certifies that the coefficient point sits in an unbounded
component of the complement of the discriminant amoeba (the patchwork
certificate) and, when it does, tracks exactly the real solution paths from
binomial systems at the toric limit to the target system.
"""

from .binomial import BinomialSystem, RealOrthantSolution, binomial_from_cell, solve_real
from .certificate import Certificate, certify, certify_system
from .errors import (
    CorrectorStalled,
    DegenerateConfiguration,
    EmptySupport,
    PathDiverged,
    RealHomotopyError,
    SingularDirection,
    SingularExponentMatrix,
    TieDegenerate,
)
from .gale import GaleDual, gale_dual, horn_kapranov, supporting_hyperplane_offset
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
    CircuitInequality,
    MixedCell,
    MixedCellSet,
    circuit_inequalities,
    enumerate_mixed_cells,
    mixed_cell_count_bound,
)
from .pipeline import SolveReport, SolverConfig, solve
from .tracker import (
    HomotopySystem,
    PathState,
    TrackedSolution,
    make_homotopy,
    make_path,
    scaled_residual,
    select_t0,
    start_point,
    track,
)

__version__ = "0.1.0"

__all__ = [
    "BinomialSystem",
    "CayleyConfig",
    "Certificate",
    "CircuitInequality",
    "CorrectorStalled",
    "DegenerateConfiguration",
    "EmptySupport",
    "GaleDual",
    "HomotopySystem",
    "Lifting",
    "MixedCell",
    "MixedCellSet",
    "PathDiverged",
    "PathState",
    "RealHomotopyError",
    "RealOrthantSolution",
    "SingularDirection",
    "SingularExponentMatrix",
    "SolveReport",
    "SolverConfig",
    "SupportSet",
    "SupportSystem",
    "TieDegenerate",
    "TrackedSolution",
    "binomial_from_cell",
    "build_cayley",
    "certify",
    "certify_system",
    "circuit_inequalities",
    "enumerate_mixed_cells",
    "gale_dual",
    "horn_kapranov",
    "log_abs_lifting",
    "make_homotopy",
    "make_path",
    "mixed_cell_count_bound",
    "scaled_residual",
    "select_t0",
    "solve",
    "solve_real",
    "start_point",
    "support_set",
    "support_system",
    "supporting_hyperplane_offset",
    "track",
]
