from __future__ import annotations

import json

import pytest

from reference_reports import compare_records, main

FOLD = ("failed", "fold at lam=1.234567e+00")
HALVINGS = ("failed", "corrector failed after 3 halvings at lam=1.235e+00")
START = ("failed", "start point correction failed")
UNDERFLOW = ("diverged", "step size underflow")


def _record(label, points, failures, calls, cut=0):
    return {
        "family": "forced",
        "label": label,
        "calls": calls,
        "cut": cut,
        "starts": [len(points) + len(failures)],
        "solutions": [
            {"point": list(p), "steps": 4, "residual": 1e-12} for p in points
        ],
        "failures": [[0, k, status, message] for k, (status, message) in failures],
    }


def _sides():
    """Two synthetic dumps: per label, the record before and after."""
    pairs = {
        # Fewer kernel calls, and a fold's lam moves in its last digit: the
        # report differs, with no other column set.
        "lam": (
            ([(1.0, 2.0)], [(1, FOLD)], 30),
            ([(1.0, 2.0)], [(1, ("failed", "fold at lam=1.234568e+00"))], 25),
        ),
        # A path that gave up after 3 halvings now names its fold.
        "kind": (
            ([(1.0, 2.0)], [(1, HALVINGS)], 50),
            ([(1.0, 2.0)], [(1, FOLD)], 35),
        ),
        # A diverged path now fails at a fold.
        "status": (([], [(0, UNDERFLOW)], 40), ([], [(0, FOLD)], 20)),
        # A converged endpoint moves by 2e-12 relative.
        "moved": (
            ([(1.0, -4.0)], [(1, START)], 20),
            ([(1.0, -4.0 * (1 + 2e-12))], [(1, START)], 20),
        ),
        # Two cut step correctors fewer, and nothing else changes: the
        # report does not differ.
        "cut": (([(3.0, 1.0)], [], 10, 2), ([(3.0, 1.0)], [], 10, 0)),
    }
    a = [_record(label, *before) for label, (before, _) in pairs.items()]
    b = [_record(label, *after) for label, (_, after) in pairs.items()]
    return a, b


def test_compare_records_tells_each_change_apart():
    a, b = _sides()
    [(family, row)] = compare_records(a, b).items()
    assert family == "forced"
    assert row["solves"] == 5
    assert row["differ"] == 4
    assert (row["count"], row["status"], row["steps"], row["message"]) == (0, 1, 0, 1)
    assert row["endpoint"] == pytest.approx(2e-12, rel=1e-3)
    assert row["calls"] == [150, 110]
    assert row["cut"] == [2, 0]
    assert row["kinds"] == {
        "fold": [1, 3],
        "halvings": [1, 0],
        "start": [1, 1],
        "other": [1, 0],
    }


def test_compare_records_of_a_dump_with_itself_is_quiet():
    a, _ = _sides()
    [row] = compare_records(a, a).values()
    assert (row["differ"], row["endpoint"]) == (0, 0.0)
    assert row["calls"] == [150, 150]
    assert row["cut"] == [2, 2]


def test_compare_records_refuses_different_solves():
    a, b = _sides()
    with pytest.raises(ValueError):
        compare_records(a, b[::-1])


def test_compare_prints_both_sides(tmp_path, capsys):
    a, b = _sides()
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, records in zip(paths, (a, b)):
        path.write_text(json.dumps(records))
    main(["compare", *map(str, paths)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["forced", "5", "4", "0", "1", "0", "1", "2e-12"]
    sides = "150 -> 110 2 -> 0 1 -> 3 1 -> 0 1 -> 1 1 -> 0"
    assert lines[-1].split() == ["forced", *sides.split()]
