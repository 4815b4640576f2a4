"""Seeded corpora for the benchmark workloads.

Every system comes from the generators in ``tests/helpers.py``.  Each
workload runs ``SolverConfig`` defaults apart from ``force``, which is how the
command line solves with no flags.

The solves are kept short, up to about a tenth of a second.  The timings are
each system's best over many passes (see ``run.py``), and on a shared host
only a short solve finds a quiet stretch of CPU often enough for that best to
repeat from run to run.  With solves of 0.1 to 6 s (dense d = 5, 6 and forced
n = 3 systems) the best still spread by 0.15 to 0.30 of its median across
runs.

``dense_cells``
    ``dense_system(3, 3)``, eight of them from generator seed 0,
    ``force=False``.  Brute-force cell enumeration over 45^2 = 2,025
    candidates per system is most of solve time; the certificate fails and
    nothing is tracked.

``track_forced``
    The cubic/conic reference plus 20 ``random_sparse_system(n=2, 4-5 terms)``
    from generator seed 3, ``force=True``.  Tracking dominates.

``certified_scaled``
    The 40 seed-9 ``random_sparse_system(n=2, 4-6 terms)`` systems with
    coefficients ``sign(c) |c|^8``, then the cubic/conic with coefficients
    ``sign(c) |c|^k`` (base ``(9/20)^k``) for k = 1..24, ``force=False``.  Most
    stop at the certificate; the certified ones are the paper's promise at
    extreme scale, and some raise ``OverflowError`` today.

The generator seeds are fixed.  Seed 9 is the corpus in which the tracker's
failures at scale were found.  When the benchmark seed drove the generators,
the number of paths tracked per pass and the circuit inequalities of a dense
system moved far more than any usable bound.  The benchmark seed instead
multiplies every equation by its own ``+-2^j``.  That changes the
coefficients the solver reads but no zero or cell, and the power of two keeps
the coefficients exact.  The lifting moves by a constant per equation up to
rounding, which leaves the certificate margins in place but can still decide
a path that is close to failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from helpers import cubic_conic_system, dense_system, random_sparse_system
from realhomotopy import SolverConfig, SupportSystem, support_system

DENSE_GENERATOR_SEED = 0
DENSE_DEGREES = (3,) * 8
TRACK_GENERATOR_SEED = 3
TRACK_SYSTEMS = 20
CERTIFIED_GENERATOR_SEED = 9
CERTIFIED_SYSTEMS = 40
CERTIFIED_POWER = 8
CUBIC_CONIC_POWERS = range(1, 25)


@dataclass(frozen=True)
class Item:
    """One system of a corpus with what its checks need to know."""

    label: str
    system: SupportSystem
    config: SolverConfig
    dense_degree: int | None = None
    reference: bool = False

    def candidates(self) -> int:
        """Size of the brute-force cell search: one point pair per support."""
        return math.prod(math.comb(len(s), 2) for s in self.system.supports)


def signed_power(system: SupportSystem, k: int) -> SupportSystem:
    """Replace every coefficient c by ``sign(c) * |c|**k``."""
    coefficients = [
        [(1 if c > 0 else -1) * abs(c) ** k for c in row] for row in system.coefficients
    ]
    return support_system([s.points for s in system.supports], coefficients)


def rescale_equations(system: SupportSystem, rng: np.random.Generator) -> SupportSystem:
    """Multiply each equation by a random ``+-2^j``, j in -4..4.

    The zero set and the mixed cells stay the same and the certificate
    margins move only by rounding; exact coefficients stay exact and float
    ones are scaled without rounding.
    """
    coefficients = []
    for row in system.coefficients:
        factor = int(rng.choice([-1, 1])) * Fraction(2) ** int(rng.integers(-4, 5))
        coefficients.append(
            [c * float(factor) if isinstance(c, float) else c * factor for c in row]
        )
    return support_system([s.points for s in system.supports], coefficients)


def _dense_cells() -> list[Item]:
    config = SolverConfig()
    gen = np.random.default_rng(DENSE_GENERATOR_SEED)
    return [
        Item(f"dense_{d}_{i}", dense_system(d, d, gen), config, dense_degree=d)
        for i, d in enumerate(DENSE_DEGREES)
    ]


def _track_forced() -> list[Item]:
    config = SolverConfig(force=True)
    gen = np.random.default_rng(TRACK_GENERATOR_SEED)
    items = [Item("cubic_conic", cubic_conic_system(), config, reference=True)]
    items += [
        Item(f"sparse2_{i:02d}", random_sparse_system(gen, n=2, min_terms=4, max_terms=5), config)
        for i in range(TRACK_SYSTEMS)
    ]
    return items


def _certified_scaled() -> list[Item]:
    config = SolverConfig()
    gen = np.random.default_rng(CERTIFIED_GENERATOR_SEED)
    items = [
        Item(
            f"seed9_{i:02d}",
            signed_power(random_sparse_system(gen, n=2, min_terms=4, max_terms=6), CERTIFIED_POWER),
            config,
        )
        for i in range(CERTIFIED_SYSTEMS)
    ]
    items += [
        Item(f"cubic_conic_k{k:02d}", signed_power(cubic_conic_system(), k), config)
        for k in CUBIC_CONIC_POWERS
    ]
    return items


CORPORA = {
    "dense_cells": _dense_cells,
    "track_forced": _track_forced,
    "certified_scaled": _certified_scaled,
}
WORKLOADS = tuple(CORPORA)


def build(workload: str, seed: int) -> list[Item]:
    """The corpus of a workload for a benchmark seed, in solve order."""
    rng = np.random.default_rng(seed)
    return [replace(it, system=rescale_equations(it.system, rng)) for it in CORPORA[workload]()]
