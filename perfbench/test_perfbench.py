"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import importlib
import json
from pathlib import Path

import pytest

import run  # first: puts src/ and tests/ on sys.path
import realhomotopy
import tracing
import workloads
from checks import check_report, matches_reference
from helpers import EXPECTED_TRACKED_SOLUTIONS

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _result(capsys, *args) -> dict:
    assert run.main(["--workload", "certified_scaled", "--seed", "1", "--seconds", "0", *args]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_match_benchmark_json(capsys, trace, section):
    result = _result(capsys, "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_corpus_shape(workload):
    first, again, other = (workloads.build(workload, s) for s in (1, 1, 2))
    assert first == again

    def shape(items):
        return [(it.label, it.config, it.system.supports, it.candidates()) for it in items]

    assert shape(first) == shape(other)
    assert [it.system.coefficients for it in first] != [it.system.coefficients for it in other]


def test_rescaling_keeps_exact_coefficients_exact():
    for it in workloads.build("certified_scaled", 5):
        if it.label.startswith("cubic_conic"):
            assert all(not isinstance(c, float) for row in it.system.coefficients for c in row)


@pytest.fixture(scope="module")
def reference():
    item = next(it for it in workloads.build("track_forced", 1) if it.reference)
    return item, realhomotopy.solve(item.system, item.config)


def test_reference_report_passes_checks(reference):
    item, report = reference
    assert check_report(item, report) == []


def test_perturbed_solution_trips_check_failure_frac(reference):
    item, report = reference
    sol = report.solutions[0]
    moved = dataclasses.replace(sol, point=(sol.point[0] * (1 + 1e-4), sol.point[1]))
    bad = dataclasses.replace(report, solutions=[moved, *report.solutions[1:]])
    assert {"residual", "reference"} <= set(check_report(item, bad))

    tally = run.Tally()
    tally.add_report(item, report)
    tally.add_report(item, bad)
    metrics = {name: value for name, _, value in tally.outcome_metrics()}
    assert metrics["check_ok_frac"] == 0.5
    assert tally.failed == 1


def test_repeated_endpoint_trips_distinct_check(reference):
    item, report = reference
    twice = dataclasses.replace(report, solutions=[*report.solutions, report.solutions[0]])
    assert "distinct" in check_report(item, twice)


def test_reference_match_is_numeric_and_one_to_one():
    expected = EXPECTED_TRACKED_SOLUTIONS
    # Off by less than half a unit in the 6th digit, on either side of it.
    jittered = [(x * (1 + 4e-6), y * (1 - 4e-6)) for x, y in reversed(expected)]
    assert matches_reference(jittered, expected)
    assert not matches_reference([(x * (1 + 6e-6), y) for x, y in expected], expected)
    assert not matches_reference(expected[:-1], expected)
    assert not matches_reference([expected[0], *expected[:-1]], expected)


def test_wrong_cell_volume_trips_volume_check():
    item = workloads.build("dense_cells", 1)[0]
    report = realhomotopy.solve(item.system, item.config)
    assert check_report(item, report) == []
    short = dataclasses.replace(
        report, cells=dataclasses.replace(report.cells, cells=report.cells.cells[1:])
    )
    assert check_report(item, short) == ["volume"]


def _current():
    return {
        (m, a): getattr(importlib.import_module(m), a)
        for m, a, _ in (*tracing.SPANS, *tracing.LEAVES)
    }


def test_traced_run_restores_every_wrapped_name():
    before = _current()
    item = workloads.build("track_forced", 1)[0]
    with tracing.Tracer() as tracer:
        assert all(_current()[k] is not v for k, v in before.items())
        realhomotopy.solve(item.system, item.config)
    assert _current() == before
    assert all(_current()[k] is v for k, v in before.items())
    assert not tracer.unmeasured
    roots = [s for s in tracer.spans if s.name == tracing.ROOT]
    assert len(roots) == 1
    assert {s.solve for s in tracer.spans} == {roots[0].id}


def test_names_restored_when_the_traced_block_raises():
    before = _current()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    assert all(_current()[k] is v for k, v in before.items())


def test_missing_names_are_reported_unmeasured():
    spans = (
        *tracing.SPANS,
        ("realhomotopy.pipeline", "no_such_stage", "pipeline.gone"),
        ("realhomotopy.no_such_module", "solve", "pipeline.gone_too"),
    )
    with tracing.Tracer(spans=spans) as tracer:
        pass
    assert tracer.unmeasured == {
        "realhomotopy.pipeline.no_such_stage",
        "realhomotopy.no_such_module.solve",
    }


def test_self_time_subtracts_children_and_leaves():
    root = tracing.Span(id=0, solve=0, name=tracing.ROOT, parent=None, start=0.0, end=10.0)
    child = tracing.Span(id=1, solve=0, name="tracker.track", parent=0, start=1.0, end=7.0)
    child.leaves["kernels.h_scale"] = [3, 2.5]
    own = tracing.self_times([child, root])
    assert own == {0: 4.0, 1: 3.5}
    assert tracing.layer_self_times([child, root]) == {"pipeline": 4.0, "tracker": 3.5, "kernels": 2.5}


def test_tail_is_nearest_rank_p90():
    assert run.tail([float(i) for i in range(40)]) == (36, 35.0)
    # A corpus of three: the slowest system.
    assert run.tail([2.0, 9.0, 1.0]) == (3, 9.0)


def test_pass_count_depends_on_seconds_only():
    assert run.pass_count("track_forced", 20) == round(20 / run.PASS_SECONDS["track_forced"])
    assert run.pass_count("dense_cells", 0) == 1
    assert run.pass_count("certified_scaled", 30) > run.MIN_PASSES
    assert set(run.PASS_SECONDS) == set(workloads.WORKLOADS)


def test_timed_run_has_fixed_passes_and_samples(capsys):
    assert run.main(["--workload", "certified_scaled", "--seed", "2", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "3 passes, 192 solves" in next(l for l in lines if l.startswith("input:"))
    assert "timings use each system's best of 3 solves; solve_s_tail is p90 of 64 systems (rank 58)" in lines
