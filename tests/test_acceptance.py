"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned in the assertions, not configurable.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

from helpers import (
    EXPECTED_START_SOLUTIONS,
    EXPECTED_TRACKED_SOLUTIONS,
    KNOWN_CELL_EDGES_1BASED,
    KNOWN_CELL_PRIMITIVE_NORMAL,
    dense_system,
    quadratic_system,
    random_sparse_system,
)
from oracles import grid_binomial_solutions, lp_mixed_cells, quadratic_real_roots
from realhomotopy import (
    BinomialSystem,
    SolverConfig,
    binomial_from_cell,
    build_cayley,
    certify_system,
    enumerate_mixed_cells,
    gale_dual,
    log_abs_lifting,
    mixed_cell_count_bound,
    solve,
    solve_real,
    support_system,
)


def _report(criterion: int, text: str) -> None:
    print(f"[acceptance {criterion}] PASS: {text}")


def test_criterion_1_reference_instance_end_to_end(cubic_conic):
    config = build_cayley(cubic_conic)
    lifting = log_abs_lifting(cubic_conic)
    cells = enumerate_mixed_cells(config, lifting)

    assert len(cells.cells) == 6
    assert all(c.volume == 1 for c in cells.cells)
    known = [
        c
        for c in cells.cells
        if tuple((p + 1, q + 1) for p, q in c.edges) == KNOWN_CELL_EDGES_1BASED
    ]
    assert len(known) == 1
    assert known[0].primitive_normal == KNOWN_CELL_PRIMITIVE_NORMAL

    starts = []
    for cell in cells.cells:
        starts.extend(s.point for s in solve_real(binomial_from_cell(cell, cubic_conic)))
    assert len(starts) == 6
    for expected in EXPECTED_START_SOLUTIONS:
        rel = min(
            max(abs(a - b) / max(1e-300, abs(b)) for a, b in zip(p, expected))
            for p in starts
        )
        assert rel < 1e-9, f"start solution {expected} off by {rel:.2e}"

    # The certificate declines this instance (sufficient-only test), so the
    # end-to-end tracking run uses force mode.
    elapsed = time.perf_counter()
    report = solve(cubic_conic, SolverConfig(force=True))
    elapsed = time.perf_counter() - elapsed
    assert len(report.solutions) == 6
    assert report.failures == []
    points = [s.point for s in report.solutions]
    for expected in EXPECTED_TRACKED_SOLUTIONS:
        err = min(max(abs(a - b) for a, b in zip(p, expected)) for p in points)
        assert err < 1e-4, f"tracked solution {expected} off by {err:.2e}"
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            assert max(abs(a - b) for a, b in zip(p, q)) > 1e-6
    assert elapsed < 1.0, f"solve took {elapsed:.3f}s"
    _report(
        1,
        f"6 unit cells, 6 start and 6 tracked solutions matched in {elapsed:.3f}s",
    )


def test_criterion_2_mixed_cell_oracle_equivalence():
    rng = np.random.default_rng(71)
    started = time.perf_counter()
    count = 0
    while count < 200:
        system = random_sparse_system(rng, n=2, min_terms=3, max_terms=5, box=4)
        config = build_cayley(system)
        lifting = log_abs_lifting(system)
        cells = enumerate_mixed_cells(config, lifting)
        expected = lp_mixed_cells(config, lifting)
        ours = {tuple(tuple(sorted(e)) for e in c.edges): c for c in cells.cells}
        assert set(ours) == {e for e, _, _ in expected}
        for edges, gamma, volume in expected:
            cell = ours[edges]
            assert cell.volume == volume
            a = np.array([float(v) for v in cell.normal])
            b = -gamma
            assert np.allclose(
                a / np.linalg.norm(a), b / np.linalg.norm(b), atol=1e-6
            )
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, f"200 random systems matched the LP oracle in {elapsed:.1f}s")


def test_criterion_3_mixed_volume_conservation():
    rng = np.random.default_rng(72)
    for d1, d2 in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        for _ in range(5):
            system = dense_system(d1, d2, rng)
            cells = enumerate_mixed_cells(
                build_cayley(system), log_abs_lifting(system)
            )
            assert cells.total_volume() == d1 * d2
    _report(3, "cell volumes sum to d1*d2 for degrees (1,1),(2,1),(2,2),(3,2)")


def test_criterion_4_certificate_soundness_quadratics():
    c2_values = [0.25, 0.5, 1.0, 4.0]
    c1_values = list(np.geomspace(1.05, 105.0, 25))
    passing = 0
    for c2, c1 in itertools.product(c2_values, c1_values):
        cert, _ = certify_system(quadratic_system(1.0, c1, c2))
        assert cert.verdict == (c1 * c1 > 81.0 * c2), (c1, c2)
        if not cert.verdict:
            continue
        passing += 1
        report = solve(quadratic_system(1.0, c1, c2))
        roots = sorted(s.point[0] for s in report.solutions)
        expected = quadratic_real_roots(1.0, c1, c2)
        assert len(roots) == len(expected) == 2
        assert roots == pytest.approx(expected, abs=1e-6)
    assert passing >= 20
    _report(
        4,
        f"100-point sweep: {passing} passing instances all tracked 2 roots "
        "matching the quadratic formula",
    )


def test_criterion_5_entropy_bound():
    rng = np.random.default_rng(73)
    configs = 0
    while configs < 5:
        system = random_sparse_system(rng, n=2, min_terms=4, max_terms=6, box=5)
        config = build_cayley(system)
        dual = gale_dual(config)
        if dual.codim == 0:
            continue
        configs += 1
        b = np.array([list(r) for r in dual.rows])
        log_m = math.log(dual.m)
        violations = 0
        for _ in range(1000):
            zeta = rng.normal(size=dual.codim)
            u = b @ zeta
            nonzero = np.abs(u) > 0
            lhs = abs(float(np.sum(u[nonzero] * np.log(np.abs(u[nonzero])))))
            bound = 0.5 * float(np.sum(np.abs(u))) * log_m
            if lhs > bound * (1.0 + 1e-9) + 1e-12:
                violations += 1
        assert violations == 0
    _report(5, "entropy estimate held for 5 configurations x 1000 directions")


def test_criterion_6_binomial_oracle_equivalence():
    rng = np.random.default_rng(74)
    checked = 0
    for d in (-3, -2, -1, 1, 2, 3):
        rhs = float(rng.choice([-1.0, 1.0]) * np.exp(rng.uniform(-2, 2)))
        ours = [s.point for s in solve_real(BinomialSystem(((d,),), (rhs,)))]
        ref = [tuple(x) for x in grid_binomial_solutions(np.array([[d]]), np.array([rhs]))]
        assert len(ours) == len(ref)
        for a, b in zip(sorted(ours), sorted(ref)):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)
        checked += 1
    for entries in itertools.product(range(-3, 4), repeat=4):
        d = np.array(entries).reshape(2, 2)
        det = round(float(np.linalg.det(d)))
        if not 1 <= abs(det) <= 9:
            continue
        rhs = np.array(
            [float(s * np.exp(rng.uniform(-2, 2))) for s in rng.choice([-1.0, 1.0], 2)]
        )
        bsys = BinomialSystem(
            exponents=tuple(tuple(int(v) for v in row) for row in d),
            rhs=tuple(rhs),
        )
        ours = sorted(s.point for s in solve_real(bsys))
        ref = sorted(tuple(x) for x in grid_binomial_solutions(d, rhs))
        assert len(ours) == len(ref), (d.tolist(), rhs.tolist(), ours, ref)
        for a, b in zip(ours, ref):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-10)
        checked += 1
    assert checked > 1500
    _report(6, f"{checked} exponent matrices agreed with the grid-search oracle")


def test_criterion_7_fewnomial_bound(cubic_conic):
    assert mixed_cell_count_bound(2, 8) == 728
    assert mixed_cell_count_bound(2, 8) < 2**12
    instances = [
        (cubic_conic, True),
        (quadratic_system(1.0, 10.0, 1.0), False),
        (quadratic_system(1.0, 3.0, 1.0), True),
    ]
    rng = np.random.default_rng(75)
    for _ in range(5):
        instances.append((random_sparse_system(rng), True))
    for system, force in instances:
        report = solve(system, SolverConfig(force=force))
        t = max(len(s) for s in system.supports)
        bound = mixed_cell_count_bound(system.n, max(t, 2))
        assert len(report.solutions) <= bound
    _report(7, "bound(2,8)=728<4096 and all solved instances stayed below it")


def test_criterion_8_certificate_scaling_invariance():
    rng = np.random.default_rng(76)
    corpus = []
    # Quadratic passers.
    for c1 in (10.0, 20.0, 50.0):
        corpus.append(quadratic_system(1.0, c1, 1.0))
    # Random systems pushed into the passing cone by powering coefficients.
    found = 0
    while found < 5:
        system = random_sparse_system(rng)
        for power in (1, 2, 4, 8, 16, 32):
            powered = support_system(
                [s.points for s in system.supports],
                [
                    [math.copysign(abs(float(c)) ** power, float(c)) for c in row]
                    for row in system.coefficients
                ],
            )
            cert, cells = certify_system(powered)
            if cert.verdict and cells.inequalities:
                corpus.append(powered)
                found += 1
                break
    assert len(corpus) >= 8
    for system in corpus:
        base, _ = certify_system(system)
        assert base.verdict
        for s in (1, 2, 3, 5):
            scaled = support_system(
                [sup.points for sup in system.supports],
                [
                    [math.copysign(abs(float(c)) ** s, float(c)) for c in row]
                    for row in system.coefficients
                ],
            )
            cert, _ = certify_system(scaled)
            assert cert.verdict, f"scaling power {s} flipped a pass to a fail"
    _report(8, f"{len(corpus)} passing systems stayed passing under s in 1,2,3,5")
