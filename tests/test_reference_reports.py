from __future__ import annotations

import json
import math

import numpy as np
import pytest

from reference_reports import compare_records, main

FOLD = ("failed", "fold at lam=1.234567e+00")
HALVINGS = ("failed", "corrector failed after 3 halvings at lam=1.235e+00")
START = ("failed", "start point correction failed")
UNDERFLOW = ("diverged", "step size underflow")


def _record(label, points, failures, calls, cut=0, steps=4, family="forced"):
    """A dump's record of one solve, each endpoint given by its x and
    reached in ``steps`` accepted steps."""
    return {
        "family": family,
        "label": label,
        "calls": calls,
        "cut": cut,
        "starts": [len(points) + len(failures)],
        "solutions": [
            {
                "signs": [1 if v > 0 else -1 for v in p],
                "logs": [math.log(abs(v)) for v in p],
                "steps": steps,
                "residual": 1e-12,
            }
            for p in points
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
        # The same endpoint in 3 accepted steps instead of 6.
        "steps": (([(2.0, 3.0)], [], 12, 0, 6), ([(2.0, 3.0)], [], 9, 0, 3)),
    }
    a = [_record(label, *before) for label, (before, _) in pairs.items()]
    b = [_record(label, *after) for label, (_, after) in pairs.items()]
    return a, b


def test_compare_records_tells_each_change_apart():
    a, b = _sides()
    [(family, row)] = compare_records(a, b).items()
    assert family == "forced"
    assert row["solves"] == 6
    assert row["differ"] == 5
    assert (row["count"], row["status"], row["steps"], row["message"]) == (0, 1, 1, 1)
    assert row["endpoint"] == pytest.approx(2e-12, rel=1e-3)
    assert row["calls"] == [162, 119]
    # Four converged paths of 4 steps each, and one of 6, then 3.
    assert row["accepted"] == [22, 19]
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
    assert row["calls"] == [162, 162]
    assert row["accepted"] == [22, 22]
    assert row["cut"] == [2, 2]


def test_compare_records_refuses_different_solves():
    a, b = _sides()
    with pytest.raises(ValueError):
        compare_records(a, b[::-1])


def test_compare_records_names_a_family_of_one_side():
    a, b = _sides()
    extra = _record("far", [(2.0,)], [(1, FOLD)], 7, family="at_scale")
    for records, side in (((a + [extra], b), "A"), ((a, b + [extra]), "B")):
        rows = compare_records(*records)
        assert list(rows) == ["forced", "at_scale"]
        assert rows["forced"] == compare_records(a, b)["forced"]
        row = rows["at_scale"]
        assert (row["only"], row["solves"], row["differ"]) == (side, 1, 0)
        mine, other = (0, 1) if side == "A" else (1, 0)
        counts = (
            (row["calls"], 7),
            (row["accepted"], 4),
            (row["cut"], 0),
            (row["kinds"]["fold"], 1),
        )
        for pair, count in counts:
            assert (pair[mine], pair[other]) == (count, None)


def test_compare_records_reads_an_older_dump_in_x():
    # An older dump recorded each endpoint as x, which track formed as
    # sign * np.exp(log|x|): the same solves compare equal.
    a, _ = _sides()
    older = []
    for record in a:
        solutions = [
            {
                "point": (np.array(s["signs"], float) * np.exp(s["logs"])).tolist(),
                "steps": s["steps"],
                "residual": s["residual"],
            }
            for s in record["solutions"]
        ]
        older.append({**record, "solutions": solutions})
    for pair in ((older, a), (a, older)):
        [row] = compare_records(*pair).values()
        assert (row["differ"], row["endpoint"]) == (0, 0.0)


def test_compare_prints_both_sides(tmp_path, capsys):
    a, b = _sides()
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, records in zip(paths, (a, b)):
        path.write_text(json.dumps(records))
    main(["compare", *map(str, paths)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["forced", "6", "5", "0", "1", "1", "1", "2e-12"]
    assert lines[-2].split()[:5] == ["family", "jac_dlam", "calls", "accepted", "steps"]
    sides = "162 -> 119 22 -> 19 2 -> 0 1 -> 3 1 -> 0 1 -> 1 1 -> 0"
    assert lines[-1].split() == ["forced", *sides.split()]


def test_compare_prints_a_family_of_one_side(tmp_path, capsys):
    a, b = _sides()
    extra = _record("far", [(2.0,)], [], 7, family="at_scale")
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, records in zip(paths, (a, b + [extra])):
        path.write_text(json.dumps(records))
    main(["compare", *map(str, paths)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["at_scale", "1", "only", "in", "B"]
    sides = "- -> 7 - -> 4 - -> 0 - -> 0 - -> 0 - -> 0 - -> 0"
    assert lines[-1].split() == ["at_scale", *sides.split()]
