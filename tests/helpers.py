"""Shared system builders and pinned reference data for the test suite."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from realhomotopy import (
    CircuitTable,
    SupportSystem,
    build_cayley,
    enumerate_mixed_cells,
    log_abs_lifting,
    support_system,
)

BASE = Fraction(9, 20)

CUBIC_SUPPORT = [
    [0, 3], [1, 2], [2, 1], [3, 0], [0, 2],
    [1, 1], [2, 0], [0, 1], [1, 0], [0, 0],
]
CUBIC_POWERS = [0, 1, 5, 12, 1, 4, 9, 5, 9, 12]
CUBIC_SIGNS = [1, -1, -1, 1, -1, 1, -1, -1, -1, 1]

CONIC_SUPPORT = [[0, 2], [1, 1], [2, 0], [0, 1], [1, 0], [0, 0]]
CONIC_POWERS = [8, 6, 6, 3, 2, 0]
CONIC_SIGNS = [1, -1, 1, -1, -1, 1]

# Published reference output for the cubic/conic instance.
EXPECTED_START_SOLUTIONS = [
    (4.938271604938272, 2.2222222222222223),
    (4.938271604938272, -0.20249999999999999),
    (4.938271604938272, -0.041006249999999994),
    (24.386526444139612, 10.973936899862824),
    (24.386526444139612, -1.0),
    (24.386526444139612, 0.09112500000000004),
]
EXPECTED_TRACKED_SOLUTIONS = [
    (4.20818, 2.41707),
    (7.12063, -0.138875),
    (6.94337, -0.0383256),
    (49.3211, 24.3919),
    (15.9697, -0.517115),
    (17.5735, 0.0244792),
]
KNOWN_CELL_EDGES_1BASED = ((2, 1), (5, 6))
KNOWN_CELL_PRIMITIVE_NORMAL = (-2, -1)

# First verified run of this implementation (cells oracle-checked beforehand);
# the certificate declines this instance, the slack log(16) dominates.
EXPECTED_CERT_VERDICT = False
EXPECTED_CERT_MIN_MARGIN = -22.136333348873421


def cubic_conic_system() -> SupportSystem:
    """Dense cubic and conic with signed powers of 9/20 as coefficients."""
    f_coeffs = [s * BASE**p for s, p in zip(CUBIC_SIGNS, CUBIC_POWERS)]
    g_coeffs = [s * BASE**p for s, p in zip(CONIC_SIGNS, CONIC_POWERS)]
    return support_system([CUBIC_SUPPORT, CONIC_SUPPORT], [f_coeffs, g_coeffs])


def orthant_point(sol) -> tuple[float, ...]:
    """x of a solution given as its orthant ``signs`` and ``logs = log|x|``."""
    return tuple(s * math.exp(v) for s, v in zip(sol.signs, sol.logs))


def quadratic_system(c0: float, c1: float, c2: float) -> SupportSystem:
    return support_system([[[0], [1], [2]]], [[c0, c1, c2]])


def dense_support(degree: int, n: int = 2) -> list[list[int]]:
    """All exponent vectors in n variables of total degree at most ``degree``."""
    return [
        list(p)
        for p in itertools.product(range(degree + 1), repeat=n)
        if sum(p) <= degree
    ]


def dense_system(d1: int, d2: int, rng: np.random.Generator) -> SupportSystem:
    return dense_system_n((d1, d2), rng)


def dense_system_n(
    degrees: Sequence[int], rng: np.random.Generator
) -> SupportSystem:
    """Dense square system in ``len(degrees)`` variables, one support per degree."""
    supports = [dense_support(d, len(degrees)) for d in degrees]
    coefficients = [
        [float(s) * float(np.exp(rng.uniform(-1.5, 1.5))) for s in rng.choice([-1.0, 1.0], len(sup))]
        for sup in supports
    ]
    return support_system(supports, coefficients)


def random_sparse_system(
    rng: np.random.Generator,
    n: int = 2,
    min_terms: int = 3,
    max_terms: int = 5,
    box: int = 4,
) -> SupportSystem:
    """Random square system with log-uniform coefficients, distinct supports.

    Each support draws distinct points of the box ``[0, box]^n``, so more
    than ``(box + 1)^n`` terms raise ValueError before any draw.
    """
    if max_terms > (box + 1) ** n:
        raise ValueError(f"max_terms {max_terms} exceeds the {(box + 1) ** n} points of the box")
    supports = []
    for _ in range(n):
        k = int(rng.integers(min_terms, max_terms + 1))
        pts: set[tuple[int, ...]] = set()
        while len(pts) < k:
            pts.add(tuple(int(v) for v in rng.integers(0, box + 1, size=n)))
        supports.append(sorted(pts))
    coefficients = [
        [
            float(s) * float(np.exp(rng.uniform(-3.0, 3.0)))
            for s in rng.choice([-1.0, 1.0], len(sup))
        ]
        for sup in supports
    ]
    return support_system(supports, coefficients)


def exact_signed_power(system: SupportSystem, k: int) -> SupportSystem:
    """``system`` with every coefficient c replaced by ``sign(c) |c|**k`` as an
    exact Fraction, so no power overflows or underflows."""
    return support_system(
        [s.points for s in system.supports],
        [
            [(1 if c > 0 else -1) * abs(Fraction(c)) ** k for c in row]
            for row in system.coefficients
        ],
    )


def at_scale_systems() -> list[tuple[str, SupportSystem]]:
    """Systems whose zeros lie up to about ``exp(+-2000)``, labelled: the first
    30 ``random_sparse_system(n=3, 3-5 terms)`` from generator seed 40 with
    coefficients ``sign(c) |c|**k`` for k = 20 and then k = 40, and the
    quadratics ``(x - 10**k)(x - 10**-k)`` for k = 100, 200 and 400."""
    rng = np.random.default_rng(40)
    base = [random_sparse_system(rng, n=3, min_terms=3, max_terms=5) for _ in range(30)]
    systems = [
        (f"n3_k{k}_{i:02d}", exact_signed_power(system, k))
        for k in (20, 40)
        for i, system in enumerate(base)
    ]
    for k in (100, 200, 400):
        middle = -(10**k + Fraction(1, 10**k))
        quadratic = support_system([[[0], [1], [2]]], [[1, middle, 1]])
        systems.append((f"quadratic_1e{k}", quadratic))
    return systems


def dyadic(nums: Sequence[int], shifts: Sequence[int]) -> tuple[float, ...]:
    """Lifting values ``nums[i] / 2**shifts[i]``.  With small numerators
    these floats, and the sums of their small integer multiples that circuit
    values are, are exact, so a tie is an exact zero."""
    return tuple(math.ldexp(int(a), -int(b)) for a, b in zip(nums, shifts))


# Converged paths of each ``held_out_forced`` system, in order: 200 at n = 2
# then 24 at n = 3, 708 in all.  Generated, while the tracker's 2 x 2 solves
# were still LAPACK's, by
#     [len(solve(s, SolverConfig(force=True)).solutions)
#      for _, s in held_out_forced()]
# (also the solution counts ``python3 tests/reference_reports.py dump``
# records).  These are the zeros the tracker reaches, not exact zero counts:
# a change that moves one has changed which paths converge.  n2_g22_07 and
# n2_g22_18 each gained one (4 -> 5, 2 -> 3) when ``select_t0`` stopped
# skipping t0 candidates whose start left 1e10 in x.
HELD_OUT_CONVERGED = (
    4, 1, 0, 4, 4, 3, 4, 4, 1, 1, 3, 3, 4, 1, 3, 1, 0, 5, 3, 3, 4, 1, 2, 2, 5,
    4, 3, 5, 0, 2, 6, 2, 4, 4, 7, 3, 3, 3, 4, 7, 6, 3, 3, 3, 4, 6, 4, 5, 4, 1,
    5, 4, 7, 4, 6, 0, 1, 2, 3, 4, 3, 2, 2, 5, 4, 2, 2, 1, 6, 3, 4, 3, 7, 6, 1,
    1, 2, 4, 1, 14, 3, 4, 5, 4, 0, 6, 3, 0, 0, 8, 4, 4, 3, 1, 1, 2, 2, 4, 2, 0,
    2, 3, 4, 4, 2, 1, 5, 5, 2, 6, 2, 3, 0, 4, 3, 3, 6, 2, 4, 5, 3, 5, 0, 0, 4,
    2, 7, 1, 1, 0, 4, 3, 1, 4, 5, 4, 6, 0, 2, 5, 4, 5, 1, 3, 4, 2, 2, 8, 2, 2,
    2, 0, 0, 4, 3, 1, 3, 4, 4, 2, 4, 0, 2, 3, 2, 8, 4, 0, 4, 3, 2, 0, 0, 5, 2,
    4, 3, 2, 7, 3, 2, 2, 4, 6, 1, 3, 4, 2, 1, 2, 3, 0, 2, 6, 3, 0, 4, 4, 0, 2,
    3, 8, 2, 4, 2, 4, 1, 9, 2, 4, 5, 3, 4, 2, 5, 7, 2, 5, 6, 1, 2, 4, 2, 6,
)


def held_out_forced() -> list[tuple[str, SupportSystem]]:
    """The 224 held-out forced systems, labelled: 20
    ``random_sparse_system(n=2, 4-6 terms)`` from each generator seed 20-29,
    then 8 ``random_sparse_system(n=3, 3-4 terms)`` from each seed 40-42,
    all solved with ``force=True``."""
    held_out = []
    for seeds, count, n, terms in (
        (range(20, 30), 20, 2, (4, 6)),
        (range(40, 43), 8, 3, (3, 4)),
    ):
        for g in seeds:
            rng = np.random.default_rng(g)
            held_out += [
                (f"n{n}_g{g}_{i:02d}", random_sparse_system(rng, n, *terms))
                for i in range(count)
            ]
    return held_out


def circuit_rows(table: CircuitTable) -> list[tuple[dict[int, int], int]]:
    """A circuit table's rows as the oracles write them, ``(coeffs, witness)``:
    the nonzero coefficients by Cayley point in column order, so the witness,
    the last column's point, comes last."""
    return [
        ({k: c for k, c in zip(points, row) if c != 0}, points[-1])
        for points, row in zip(table.points.tolist(), table.coeffs.tolist())
    ]


def cell_gale_matrix(system: SupportSystem) -> np.ndarray | None:
    """The first mixed cell's circuit rows as the columns of an m x (m - 2n)
    integer matrix, column r holding row r's coefficients on its points;
    None when the lifting log|c| has no mixed cell.

    Each column is an affine relation among the Cayley points, so it lies in
    the configuration's Gale dual, and each has its own witness point, off
    every other row of the cell, so the m - 2n columns are independent and
    span that dual.  Asserts both.
    """
    config = build_cayley(system)
    cells = enumerate_mixed_cells(config, log_abs_lifting(system))
    if not cells.cells:
        return None
    per_cell = config.m - 2 * config.n
    table = cells.inequalities
    dual = np.zeros((config.m, per_cell), dtype=np.int64)
    for r in range(per_cell):
        dual[table.points[r], r] = table.coeffs[r]
    homogenized = np.vstack([np.array(config.points).T, np.ones(config.m, int)])
    assert np.all(homogenized @ dual == 0)
    assert np.linalg.matrix_rank(dual.astype(float)) == per_cell
    return dual


def entropy_terms(u: np.ndarray, m: int) -> tuple[float, float]:
    """``|sum_i u_i log|u_i||`` and the bound ``|u|_1 log(m) / 2`` that
    criterion 5 puts on it for a Gale vector u of m points."""
    nonzero = u[u != 0]
    lhs = abs(float(np.sum(nonzero * np.log(np.abs(nonzero)))))
    return lhs, 0.5 * float(np.sum(np.abs(u))) * math.log(m)
