from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    CONIC_POWERS,
    CONIC_SIGNS,
    CONIC_SUPPORT,
    CUBIC_POWERS,
    CUBIC_SIGNS,
    CUBIC_SUPPORT,
    KNOWN_CELL_PRIMITIVE_NORMAL,
    dense_system_n,
)
import realhomotopy
from realhomotopy.cli import entry, main
from decimal import Decimal, localcontext
from fractions import Fraction

REPO = Path(__file__).resolve().parents[1]


def _write(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _cubic_conic_doc(power=1):
    base = Fraction(9, 20) ** power
    return {
        "n": 2,
        "supports": [CUBIC_SUPPORT, CONIC_SUPPORT],
        "coefficients": [
            [str(s * base**p) for s, p in zip(CUBIC_SIGNS, CUBIC_POWERS)],
            [str(s * base**p) for s, p in zip(CONIC_SIGNS, CONIC_POWERS)],
        ],
    }


def _quadratic_doc(c0, c1, c2):
    return {"n": 1, "supports": [[[0], [1], [2]]], "coefficients": [[c0, c1, c2]]}


class TestMixedCellsCommand:
    def test_cubic_conic(self, tmp_path, capsys):
        code = main(["mixed-cells", _write(tmp_path, _cubic_conic_doc())])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cell_count"] == 6
        assert doc["total_volume"] == 6
        known = [c for c in doc["cells"] if c["indices"] == [[2, 1], [5, 6]]]
        assert len(known) == 1
        assert known[0]["volume"] == 1
        assert known[0]["normal_primitive"] == list(KNOWN_CELL_PRIMITIVE_NORMAL)
        scale = abs(math.log(0.45))
        assert known[0]["normal"] == pytest.approx(
            [scale * v for v in KNOWN_CELL_PRIMITIVE_NORMAL], rel=1e-12
        )
        assert all(c["inequalities"] == 12 for c in doc["cells"])

    def test_dense_three_variables(self, tmp_path, capsys, rng):
        system = dense_system_n((3, 3, 3), rng)
        doc = {
            "n": 3,
            "supports": [[list(p) for p in s.points] for s in system.supports],
            "coefficients": [list(row) for row in system.coefficients],
        }
        assert main(["mixed-cells", _write(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 3
        assert out["total_volume"] == 27

    def test_output_reparses(self, tmp_path, capsys):
        main(["mixed-cells", _write(tmp_path, _cubic_conic_doc())])
        out = capsys.readouterr().out
        assert json.loads(out) == json.loads(json.dumps(json.loads(out)))

    @pytest.mark.parametrize(
        "text", ["{not json", "[" * 1000 + "]" * 1000], ids=["not_json", "deep_nesting"]
    )
    def test_malformed_json(self, tmp_path, capsys, text):
        # Nesting past the recursion limit is an input error as well.
        path = tmp_path / "bad.json"
        path.write_text(text)
        for command in ("mixed-cells", "certify", "solve"):
            assert main([command, str(path)]) == 1
            assert capsys.readouterr().err.startswith("error: ")

    def test_missing_key(self, tmp_path):
        assert main(["mixed-cells", _write(tmp_path, {"n": 1})]) == 1

    def test_degenerate_lifting_exit_3(self, tmp_path, capsys):
        doc = _quadratic_doc(1, 1, 1)
        assert main(["mixed-cells", _write(tmp_path, doc)]) == 3
        assert "degenerate" in capsys.readouterr().err


def _deep_coefficient(depth):
    """The cubic/conic input with its first coefficient nested ``depth``
    lists deep, as JSON text (json.dumps would recurse as deep)."""
    nested = "[" * depth + "]" * depth
    doc = json.dumps(_cubic_conic_doc())
    first = json.dumps(_cubic_conic_doc()["coefficients"][0][0])
    return doc.replace(first, nested, 1)


class TestShortInputErrors:
    """A bad value is echoed cut short: one "error:" line of at most 200
    characters, and exit 1, whatever the value's size."""

    @pytest.mark.parametrize("command", ["mixed-cells", "certify", "solve"])
    @pytest.mark.parametrize(
        "case",
        ["deep_coefficient", "dict_coefficient", "string_coefficient", "dict_n", "long_point"],
    )
    def test_long_values_exit_1(self, tmp_path, capsys, command, case):
        path = tmp_path / "bad.json"
        if case == "deep_coefficient":
            # 300 deep parses under pytest's own stack depth and echoes 600
            # characters uncut.
            path.write_text(_deep_coefficient(300))
        elif case == "long_point":
            # A point of 5000 zeros in a system of 2 variables, 15,000
            # characters uncut.
            doc = _cubic_conic_doc()
            doc["supports"][0] = [CUBIC_SUPPORT[0], [0] * 5000, *CUBIC_SUPPORT[2:]]
            path.write_text(json.dumps(doc))
        else:
            doc = _cubic_conic_doc()
            value = {"k": "x" * 5000} if case.startswith("dict") else "x" * 5000
            if case == "dict_n":
                doc["n"] = value
            else:
                doc["coefficients"][0][0] = value
            path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and len(line) <= 200
        assert "characters)" in line

    @pytest.mark.parametrize("command", ["mixed-cells", "certify", "solve"])
    @pytest.mark.parametrize("value", ["1e1000000", "1e-5000", "2.5e4301"])
    def test_exponent_past_the_digit_limit_exits_1(
        self, tmp_path, capsys, command, value
    ):
        # Fraction would expand each into an integer of more digits than
        # Python's 4300-digit limit on one written out: "1e1000000" into a
        # 3.3-million-bit numerator, which then solved.
        doc = _cubic_conic_doc()
        doc["coefficients"][0][0] = value
        assert main([command, _write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = sys.get_int_max_str_digits()
        reason = f"expands past {limit} digits"
        assert captured.err == f"error: bad coefficient {value!r}: {reason}\n"

    def test_exponent_digit_limit_is_pythons(self):
        # At Python's limit an exponent-form string parses as before, one
        # digit past it does not, and a limit of 0 is no limit.
        from realhomotopy.cli import _parse_coefficient

        limit = sys.get_int_max_str_digits()
        assert _parse_coefficient(f"1e{limit - 1}") == 10 ** (limit - 1)
        assert _parse_coefficient(f"-2.5e-{limit - 2}") == Fraction(-25, 10 ** (limit - 1))
        for value in (f"1e{limit}", f"2.5e-{limit - 1}", f"0.1e{limit + 1}"):
            with pytest.raises(ValueError, match="expands past"):
                _parse_coefficient(value)
        sys.set_int_max_str_digits(0)
        try:
            assert _parse_coefficient("1e-5000") == Fraction(1, 10**5000)
        finally:
            sys.set_int_max_str_digits(limit)


class TestCertifyCommand:
    def test_pass_exit_0(self, tmp_path, capsys):
        code = main(["certify", _write(tmp_path, _quadratic_doc(1, 10, 1))])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "pass"
        assert doc["m"] == 3
        assert doc["cell_count"] == 2
        assert doc["margins"] == sorted(doc["margins"])

    def test_fail_exit_2_with_min_margin(self, tmp_path, capsys):
        code = main(["certify", _write(tmp_path, _quadratic_doc(1, 3, 1))])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "fail"
        assert doc["margins"][0] == pytest.approx(-math.log(9.0), rel=1e-12)

    def test_scaling_visible_in_margins(self, tmp_path, capsys):
        main(["certify", _write(tmp_path, _quadratic_doc(1, 100, 1), "a.json")])
        doc_s2 = json.loads(capsys.readouterr().out)
        main(["certify", _write(tmp_path, _quadratic_doc(1, 10, 1), "b.json")])
        doc_s1 = json.loads(capsys.readouterr().out)
        dot_s1 = doc_s1["margins"][0] + math.log(3) * 4
        dot_s2 = doc_s2["margins"][0] + math.log(3) * 4
        assert dot_s2 == pytest.approx(2 * dot_s1, rel=1e-10)


class TestNoMixedCell:
    """``xy - 2, x^2 y^2 - c`` has dependent supports and no mixed cell: at
    c = 4 its zeros form the curve xy = 2, at c = 5 it has none.  Neither
    passes the certificate."""

    @pytest.mark.parametrize("c", [4, 5])
    def test_certify_and_solve_exit_2(self, tmp_path, capsys, c):
        doc = {
            "n": 2,
            "supports": [[[1, 1], [0, 0]], [[2, 2], [0, 0]]],
            "coefficients": [[1, -2], [1, -c]],
        }
        path = _write(tmp_path, doc)
        assert main(["certify", path]) == 2
        cert = json.loads(capsys.readouterr().out)
        assert (cert["verdict"], cert["cell_count"]) == ("fail", 0)
        assert (cert["inequality_count"], cert["margins"]) == (0, [])
        assert main(["solve", path]) == 2
        report = json.loads(capsys.readouterr().out)
        assert (report["verdict"], report["cell_count"]) == ("fail", 0)
        assert report["solutions"] == []

    def test_reason_on_stderr(self, tmp_path, capsys):
        # The zeros of xy - 2, x^2 y^2 - 4 form a curve: none is isolated,
        # and the mixed volume, the cells' total volume, is 0.
        doc = {
            "n": 2,
            "supports": [[[1, 1], [0, 0]], [[2, 2], [0, 0]]],
            "coefficients": [[1, -2], [1, -4]],
        }
        path = _write(tmp_path, doc)
        reason = "the mixed volume is 0, so the system has no isolated zero in the torus"
        for argv, code in (
            (["certify", path], 2),
            (["solve", path], 2),
            (["solve", "--force", path], 0),
        ):
            assert main(argv) == code
            captured = capsys.readouterr()
            assert reason in captured.err
            assert json.loads(captured.out)["cell_count"] == 0
        cubic_conic = _write(tmp_path, _cubic_conic_doc(), "cubic_conic.json")
        assert main(["certify", cubic_conic]) == 2
        assert reason not in capsys.readouterr().err


class TestSolveCommand:
    def test_cubic_conic_forced(self, tmp_path, capsys):
        code = main(["solve", "--force", _write(tmp_path, _cubic_conic_doc())])
        captured = capsys.readouterr()
        assert code == 0
        doc = json.loads(captured.out)
        assert doc["verdict"] == "fail"
        assert doc["uncertified"] is True
        assert len(doc["solutions"]) == 6
        assert captured.err.strip()
        expected = [
            (4.20818, 2.41707), (7.12063, -0.138875), (6.94337, -0.0383256),
            (49.3211, 24.3919), (15.9697, -0.517115), (17.5735, 0.0244792),
        ]
        pts = [tuple(s["point"]) for s in doc["solutions"]]
        for e in expected:
            err = min(max(abs(a - b) for a, b in zip(p, e)) for p in pts)
            assert err < 1e-4

    def test_certificate_failure_exit_2(self, tmp_path, capsys):
        code = main(["solve", _write(tmp_path, _quadratic_doc(1, 3, 1))])
        assert code == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "fail"
        assert doc["solutions"] == []

    def test_force_solves_uncertified_quadratic(self, tmp_path, capsys):
        code = main(["solve", "--force", _write(tmp_path, _quadratic_doc(1, 3, 1))])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        roots = sorted(s["point"][0] for s in doc["solutions"])
        expected = sorted([-(3 + math.sqrt(5)) / 2, -(3 - math.sqrt(5)) / 2])
        assert roots == pytest.approx(expected, abs=1e-8)

    def test_tol_passthrough(self, tmp_path, capsys):
        code = main(
            ["solve", "--tol", "1e-12", _write(tmp_path, _quadratic_doc(1, 10, 1))]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(s["residual"] < 1e-12 for s in doc["solutions"])

    def test_rational_strings_parse_exactly(self, tmp_path, capsys):
        doc = _quadratic_doc("1/1", "10/1", "1/1")
        assert main(["solve", _write(tmp_path, doc)]) == 0

    def test_zero_coefficient_rejected(self, tmp_path):
        assert main(["solve", _write(tmp_path, _quadratic_doc(1, 0, 1))]) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "supports": 5, "coefficients": [[1, -2]]},
            {"n": 1, "supports": [[0, [1]]], "coefficients": [[1, -2]]},
            {"n": 1, "supports": [[[0], [1]]], "coefficients": [5]},
            [{"n": 1, "supports": [[[0], [1]]], "coefficients": [[1, -2]]}],
            {"n": 1, "supports": [[[0], [1]]], "coefficients": [["1/0", -2]]},
            {"n": 1, "supports": [[[0], [1.5]]], "coefficients": [[1, -2]]},
            {"n": 1.7, "supports": [[[0], [1]]], "coefficients": [[1, -2]]},
            {"n": 1, "supports": [[[0], [float("inf")]]], "coefficients": [[1, -2]]},
            {"n": 1, "supports": [[[False], [True]]], "coefficients": [[1, -2]]},
        ],
        ids=[
            "supports_number",
            "point_number",
            "coefficient_row_number",
            "top_level_list",
            "division_by_zero",
            "fractional_exponent",
            "fractional_n",
            "infinite_exponent",
            "boolean_exponent",
        ],
    )
    def test_malformed_system_exit_1(self, tmp_path, capsys, doc):
        assert main(["solve", _write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1

    def test_tracking_failures_exit_4(self, tmp_path, capsys, monkeypatch):
        import realhomotopy.cli as cli_mod
        from realhomotopy.tracker import PathState

        real_solve = cli_mod.solve

        def failing_solve(system, cfg):
            report = real_solve(system, cfg)
            failed = PathState(0.0, np.zeros(1), (1,), np.zeros(1), 0, 2)
            failed.status, failed.message = "diverged", "synthetic"
            report.failures.append(failed)
            return report

        monkeypatch.setattr(cli_mod, "solve", failing_solve)
        code = main(["solve", _write(tmp_path, _quadratic_doc(1, 10, 1))])
        assert code == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["failures"] == [
            {
                "cell": 0,
                "path": 2,
                "status": "diverged",
                "message": "synthetic",
                "steps": 0,
            }
        ]

    def test_fold_failures_show_their_steps(self, tmp_path, capsys):
        # Both forced paths of 2 - 2x + x**2 step from the toric limit down
        # to the fold at lam = 1, where they fail: each failure's JSON gives
        # the accepted steps it took.
        path = _write(tmp_path, _quadratic_doc(2, -2, 1))
        assert main(["solve", path, "--force"]) == 4
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert [f["status"] for f in failures] == ["failed", "failed"]
        assert all(f["message"].startswith("fold at lam=") for f in failures)
        assert all(f["steps"] > 0 for f in failures)

    def test_start_point_underflow_solves(self, tmp_path, capsys):
        # x^3 - 10^-320 from the exact string: the start sol * t0**normal
        # underflows in x, but paths start in log form and reach the zero.
        doc = {
            "n": 1,
            "supports": [[[0], [3]]],
            "coefficients": [["-1/1" + "0" * 320, "1"]],
        }
        assert main(["solve", _write(tmp_path, doc)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [s["point"] for s in out["solutions"]] == [
            pytest.approx([10 ** (1 / 3) * 1e-107], rel=1e-12)
        ]
        assert out["failures"] == []

    def test_start_point_overflow_solves(self, tmp_path, capsys):
        # Coefficients sign(c) |c|^14: the certificate passes, and the start
        # sol * t0**normal of some cell would leave the float range in x for
        # any t0 < 1.  Certified paths start at the target, t0 = 1.
        path = _write(tmp_path, _cubic_conic_doc(power=14))
        assert main(["certify", path]) == 0
        capsys.readouterr()
        assert main(["solve", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "pass"
        assert len(out["solutions"]) == sum(out["start_solution_counts"]) == 6
        assert out["failures"] == []

    @pytest.mark.parametrize(
        "coefficients, code",
        [
            ([["1", "-10001/10000"], ["1", "-10002/10000"]], 0),
            ([["1", "-2"], ["1", "-3"]], 4),
        ],
        ids=["near_one", "small_integers"],
    )
    def test_huge_binomial_exponents_exit_4(self, tmp_path, capsys, coefficients, code):
        # det D = -1 with entries near 10**6: the float solve for log|x| is
        # off by about 1e-8 and more (see binomial._solve_logs), and the
        # certificate passes vacuously.  Both starts are signs and log|x|,
        # and their paths start at the target, where the endpoint polish
        # keeps its best iterate.  Near one that iterate is the zero.  With
        # small integers the zero lies near exp(+-405466), beyond the float
        # range, where the rounding of log|x| (ulp 5.8e-11) times D's
        # entries keeps the residual near 1e-5: a recorded failure (exit 4).
        doc = {
            "n": 2,
            "supports": [[[0, 0], [1000001, 1000000]], [[0, 0], [1000000, 999999]]],
            "coefficients": coefficients,
        }
        assert main(["solve", _write(tmp_path, doc)]) == code
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "pass"
        if code == 4:
            assert out["solutions"] == []
            [failure] = out["failures"]
            assert (failure["cell"], failure["path"]) == (0, 0)
            assert failure["status"] == "failed"
            assert re.fullmatch(
                r"endpoint residual 7\.\d{3}e-06 above tol 1e-08", failure["message"]
            )
            return
        assert out["failures"] == []
        [solution] = out["solutions"]
        # Each equation reads |x|^(row of D) = r; the only real zero is
        # positive.  D is ill-conditioned (adj D has entries near 10**6),
        # so the polish tolerance bounds D log|x| - log r, not log|x|:
        # checked here with the exact integer D and 50-digit logs of the
        # exact ratios and of the returned floats.
        assert all(v > 0 for v in solution["point"])
        with localcontext() as ctx:
            ctx.prec = 50
            logs = [Decimal(v).ln() for v in solution["point"]]
            for (_, row), (c0, c1) in zip(doc["supports"], coefficients):
                r = -Fraction(c0) / Fraction(c1)
                log_r = Decimal(r.numerator).ln() - Decimal(r.denominator).ln()
                gap = sum(e * v for e, v in zip(row, logs)) - log_r
                assert abs(gap) < Decimal("1e-8")

    def test_zeros_beyond_float_range_print_signs_and_logs(self, tmp_path, capsys):
        # (x - 10**400)(x - 10**-400), exact: both roots lie beyond the float
        # range, so each prints as signs and log|x| in place of a point, and
        # the output is strict JSON (no Infinity).
        big = 10**400
        middle = f"-{big * big + 1}/{big}"
        doc = {
            "n": 1,
            "supports": [[[0], [1], [2]]],
            "coefficients": [["1", middle, "1"]],
        }
        assert main(["solve", _write(tmp_path, doc)]) == 0

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert out["failures"] == []
        solutions = sorted(out["solutions"], key=lambda s: s["log_abs"])
        keys = ["log_abs", "residual", "signs", "steps"]
        assert [sorted(s) for s in solutions] == [keys, keys]
        assert [s["signs"] for s in solutions] == [[1], [1]]
        logs = [s["log_abs"][0] for s in solutions]
        log_big = 400 * math.log(10)
        assert logs == pytest.approx([-log_big, log_big], rel=1e-14)

    @pytest.mark.parametrize(
        "flags", [["--tol", "0"], ["--tol", "inf"], ["--tol", "-1"]]
    )
    def test_invalid_config_exit_1(self, tmp_path, capsys, flags):
        path = _write(tmp_path, _quadratic_doc(1, 10, 1))
        assert main(["solve", path, *flags]) == 1
        assert "error:" in capsys.readouterr().err


class TestOverflowingInput:
    @pytest.mark.parametrize("command", ["mixed-cells", "certify", "solve"])
    def test_exponents_near_1e200_exit_1(self, tmp_path, capsys, command):
        # Exponents near 10**200 leave the float range in the cell normals
        # and their squares in the screens' row norms.  Every command ends
        # the same way: exit 1 and one "error:" line, no traceback.
        big = 10**200
        doc = {
            "n": 2,
            "supports": [[[0, 0], [big, 1], [1, 0]], [[0, 0], [0, 1], [1, big]]],
            "coefficients": [["1", "-2", "3"], ["1", "-3", "2"]],
        }
        assert main([command, _write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ")

    def test_binomial_exponents_near_1e200_exit_4(self, tmp_path, capsys):
        # det D = -1 with entries near 10**200: the certificate passes
        # vacuously and the cell has one real start, whose log|x| is near
        # 4e199, so exps . u leaves the float range in every kernel call.
        # The solve reads only the start's orthant, and its path ends as a
        # recorded failure (exit 4).  While the solve also solved the
        # binomial for its logs, the residual check there ended it with
        # "error: -inf + inf in fsum" (exit 1).
        big = 10**200
        doc = {
            "n": 2,
            "supports": [[[0, 0], [big + 1, big]], [[0, 0], [big, big - 1]]],
            "coefficients": [["1", "-2"], ["1", "-3"]],
        }
        assert main(["solve", _write(tmp_path, doc)]) == 4
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["verdict"] == "pass"
        assert out["start_solution_counts"] == [1]
        assert out["solutions"] == []
        assert out["failures"] == [
            {
                "cell": 0,
                "path": 0,
                "status": "failed",
                "message": "endpoint residual inf above tol 1e-08",
                "steps": 0,
            }
        ]
        assert "error" not in captured.err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "flags",
        [["--threads", "4"], ["--bogus"], ["--t0", "abc"], ["--t0", "0.1"]],
    )
    def test_usage_error_exit_1(self, tmp_path, capsys, flags):
        path = _write(tmp_path, _quadratic_doc(1, 10, 1))
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, *flags])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_readme_commands_on_sample_input(self):
        # The README's commands, run as ``python -m realhomotopy``.
        env = dict(os.environ)
        src = str(Path(realhomotopy.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        sample = str(REPO / "sample_inputs" / "cubic_conic.json")
        docs = {}
        for command, code in (
            (["mixed-cells", sample], 0),
            (["certify", sample], 2),
            (["solve", sample, "--force"], 0),
        ):
            run = subprocess.run(
                [sys.executable, "-m", "realhomotopy", *command],
                cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
            )
            assert run.returncode == code, run.stderr
            docs[command[0]] = json.loads(run.stdout)
        assert docs["mixed-cells"]["cell_count"] == 6
        assert docs["certify"]["verdict"] == "fail"
        assert len(docs["solve"]["solutions"]) == 6

    def test_console_script_exit_codes(self, monkeypatch, capsys):
        # ``entry`` is the ``[project.scripts]`` console script: it reads
        # ``sys.argv`` and exits with ``main``'s code.
        sample = str(REPO / "sample_inputs" / "cubic_conic.json")
        for command, code in (
            (["mixed-cells", sample], 0),
            (["certify", sample], 2),
            (["solve", sample, "--force"], 0),
        ):
            monkeypatch.setattr(sys, "argv", ["realhomotopy", *command])
            with pytest.raises(SystemExit) as exc:
                entry()
            assert exc.value.code == code
            assert json.loads(capsys.readouterr().out)
