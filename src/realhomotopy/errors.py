"""Exception types shared across the solver, and how messages echo values."""

from __future__ import annotations


def echo(value: object) -> str:
    """``repr(value)``, cut to its first 60 characters when longer, so that
    an error about any input value stays one short line."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


class RealHomotopyError(Exception):
    """Base class for all solver errors."""


class SingularExponentMatrix(RealHomotopyError):
    """Exponent-difference matrix is singular; the cell is degenerate."""


class TieDegenerate(RealHomotopyError):
    """A lifting value ties within tolerance; the subdivision is not generic."""


class EmptySupport(RealHomotopyError):
    """A support has fewer than two points, so no edge can be selected."""

