"""Exception types shared across the solver."""

from __future__ import annotations


class RealHomotopyError(Exception):
    """Base class for all solver errors."""


class SingularExponentMatrix(RealHomotopyError):
    """Exponent-difference matrix is singular; the cell is degenerate."""


class TieDegenerate(RealHomotopyError):
    """A lifting value ties within tolerance; the subdivision is not generic."""


class EmptySupport(RealHomotopyError):
    """A support has fewer than two points, so no edge can be selected."""

