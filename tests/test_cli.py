"""Tests for the command-line front end."""

import argparse
import ast
import contextlib
import hashlib
import importlib
import io
import json
import random
import re
import shlex
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from secular import cli
from secular.cli import run
from secular.errors import NonConvergenceError
from secular.floquet import integrate
from secular.matrixcore import SquareMatrix
from secular.ratpoly import MAX_EXPONENT, RationalPolynomial, parse_rational
from secular.pcr3bp import _flow_to_crossing
from secular.section import linearize_map

WORKED = ('{"n":3,"flavor":"exact","rows":'
          '[["1","-1","0"],["-1","2","1"],["0","1","1"]]}')


@pytest.fixture
def worked_matrix(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(WORKED)
    return str(path)


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_sturm_count_worked_example(self, capsys):
        code, out, _ = invoke(capsys, [
            "sturm", "count",
            "--poly", '{"coeffs":["-6","11","-6","1"]}',
            "--lo", "0", "--hi", "5/2",
        ])
        assert code == 0
        assert out == "2\n"

    def test_malformed_matrix_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, out, err = invoke(capsys, ["jordan", "--matrix", str(bad)])
        assert code == 1
        assert err.startswith("error: input:")

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = invoke(capsys, ["charpoly", "--matrix", "/nope.json"])
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, ["frobnicate"])
        assert code == 1
        assert "invalid choice" in err

    def test_collision_is_non_convergence(self, capsys):
        code, _, err = invoke(capsys, [
            "pcr3bp", "propagate", "--mu", "0.012150585",
            "--state", "0.02,0.0,0.0,0.0", "--t", "3.0",
        ])
        assert code == 2
        assert err.startswith("error: non-convergence:")

    def test_bad_mass_ratio_fails_before_the_flight(self, capsys,
                                                    monkeypatch):
        # propagate checks mu as it builds the flow, before any flight
        flights = []
        monkeypatch.setattr("secular.cli.integrate",
                            lambda *a, **k: flights.append(a))
        code, out, err = invoke(capsys, [
            "--format", "csv", "pcr3bp", "propagate", "--mu", "0.7",
            "--state", "0.5,0.3,0.2,-0.1", "--t", "300"])
        assert (code, out, flights) == (1, "", [])
        assert err == ("error: input: mass ratio must lie in (0, 1/2], "
                       "got 0.7\n")

    def test_tiny_tol_is_one_line_non_convergence(self, capsys):
        # tol = 1e-300 overflows the integrator's initial-step rule
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(capsys, [
                "--tol", "1e-300", "floquet", "--a", "1", "--q", "0.1"])
        assert (code, out) == (2, "")
        assert err == ("error: non-convergence: integration failed near "
                       "t=0: Required step size is less than spacing "
                       "between numbers.\n")

    def test_zero_seed_amplitude_is_input_error(self, capsys):
        code, out, err = invoke(capsys, [
            "pcr3bp", "orbit", "--mu", "0.012", "--seed-amplitude", "0"])
        assert (code, out) == (1, "")
        assert err == "error: input: corrector requires a nonzero vy0\n"

    @pytest.mark.parametrize("action", ["stability", "orbit"])
    @pytest.mark.parametrize("mu, r", [("1e-18", "6.93e-07"),
                                       ("1e-20", "1.49e-07")])
    def test_point_inside_collision_radius_is_input_error(self, capsys,
                                                          action, mu, r):
        # L1 lies about (mu/3)^(1/3) from the secondary, inside the 1e-6
        # collision radius for mu below about 3e-18: a static
        # linearization there is bad input, not a non-convergence
        code, out, err = invoke(capsys, [
            "pcr3bp", action, "--mu", mu, "--point", "L1"])
        assert (code, out) == (1, "")
        assert err == (f"error: input: L1 lies {r} from the secondary, "
                       "inside the collision radius 1e-06: no linearization\n")

    @pytest.mark.parametrize("mu, point, amplitude, r", [
        ("1e-16", "L1", "1e-3", "3.22e-06"),
        ("1e-16", "L2", "1e-3", "3.22e-06"),
        ("0.0121", "L1", "0.5", "0.151"),
        ("0.0121", "L1", "-0.5", "0.151"),
    ])
    def test_seed_amplitude_reaching_a_primary_is_input_error(
            self, capsys, mu, point, amplitude, r):
        # the linear orbit spans x in [L - A, L + A]: an |A| that is not
        # below the point's distance from the nearer primary reaches it
        code, out, err = invoke(capsys, [
            "pcr3bp", "orbit", "--mu", mu, "--point", point,
            "--seed-amplitude", amplitude])
        assert (code, out) == (1, "")
        assert err == (f"error: input: seed amplitude {float(amplitude):g} "
                       f"reaches the secondary: {point} lies {r} from it\n")

    def test_stability_outside_collision_radius_keeps_its_bytes(self, capsys):
        code, out, err = invoke(capsys, [
            "pcr3bp", "stability", "--mu", "1e-16", "--point", "L1"])
        assert (code, err) == (0, "")
        assert out == (
            '{"classification": "saddle_center", '
            '"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
            '"version": "0.1.0"}, "mu": 1e-16, "point": "L1", '
            '"position": [0.9999967817055037, 0.0], '
            '"quartic": {"const": -27.000289647038503, '
            '"s2_coeff": -2.00001930975285}, '
            '"roots": [[-2.5082945342615943, -0.0], [-0.0, '
            '-2.0715989382247084], [0.0, 2.0715989382247084], '
            '[2.5082945342615943, 0.0]], "verdict": "unstable"}\n')

    def test_memory_error_is_one_line(self, capsys, monkeypatch):
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 PiB for an array")
        monkeypatch.setattr("secular.cli.monodromy", too_big)
        code, out, err = invoke(capsys, [
            "--format", "csv", "floquet", "--grid", "0:1:2,0:1:2"])
        assert (code, out) == (1, "")
        assert err == ("error: out of memory: Unable to allocate 74.5 PiB "
                       "for an array\n")

    def test_non_convergence_reports_best_iterate(self, capsys, monkeypatch):
        def stuck(*args, **kwargs):
            raise NonConvergenceError(
                "differential correction did not reach 1e-11 in 2 steps",
                best=np.array([0.83, 0.0, 0.0, 0.0125]))
        monkeypatch.setattr("secular.cli.correct_periodic", stuck)
        code, out, err = invoke(capsys, [
            "pcr3bp", "orbit", "--mu", "0.012150585", "--point", "L1",
        ])
        assert code == 2
        assert out == ""
        assert err == ("error: non-convergence: differential correction did "
                       "not reach 1e-11 in 2 steps "
                       "(best iterate: [0.83, 0.0, 0.0, 0.0125])\n")

    def test_endless_propagate_ends_at_the_step_budget(self, capsys,
                                                       monkeypatch):
        # --t 1e300 once had no practical end; the budget, here lowered to
        # 40 tries, ends it with the flight's last state
        monkeypatch.setattr("secular.floquet.MAX_TRIES", 40)
        code, out, err = invoke(capsys, [
            "--format", "csv", "pcr3bp", "propagate", "--mu", "0.01",
            "--state=-0.5,0.3,0.2,-0.1", "--t", "1e300"])
        assert (code, out) == (2, "")
        assert err.startswith("error: non-convergence: the flight took 40 "
                              "step tries by t=")
        assert "(best iterate: [" in err and err.count("\n") == 1

    def test_internal_error_is_not_input_error(self, capsys, monkeypatch):
        # a gcd that does not divide its polynomial is a bug, not bad input
        monkeypatch.setattr("secular.ratpoly.poly_gcd",
                            lambda a, b: RationalPolynomial((3, 1)))
        code, out, err = invoke(capsys, [
            "sturm", "count", "--poly=-2,0,1",
        ])
        assert code == 3
        assert out == ""
        assert err == ("error: internal: square-free part: gcd(p, p') does "
                       "not divide p\n")

    def test_negative_value_is_attached_with_equals(self, capsys):
        # written apart, a value that starts with "-" reads as a flag
        argv = ["--format", "csv", "pcr3bp", "propagate", "--mu", "0.01",
                "--t", "1.0", "--samples", "3"]
        code, out, err = invoke(capsys, argv + ["--state",
                                                "-0.5,0.3,0.2,-0.1"])
        assert (code, out) == (1, "")
        assert err == ("error: input: usage: argument --state: expected one "
                       "argument\n")
        code, out, err = invoke(capsys, argv + ["--state=-0.5,0.3,0.2,-0.1"])
        assert (code, err) == (0, "")
        assert out.splitlines()[2].startswith("0.0,-0.5,0.3,0.2,-0.1,")

    def test_sturm_count_half_bounded(self, capsys):
        # x^2 - 2 has one root in (0, inf) and one in (-inf, 0]
        for bound in (["--lo", "0"], ["--hi", "0"]):
            code, out, _ = invoke(capsys, ["sturm", "count", "--poly=-2,0,1",
                                           *bound])
            assert code == 0
            assert out == "1\n"

    def test_csv_rejected_on_json_output(self, capsys):
        code, out, err = invoke(capsys, [
            "--format", "csv", "pcr3bp", "lagrange", "--mu", "0.0121",
        ])
        assert code == 1
        assert out == ""
        assert err.startswith("error: input: usage:")
        assert err.count("\n") == 1

    def test_bare_list_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('[["1","0"],["0","1"]]')
        code, out, _ = invoke(capsys, ["charpoly", "--matrix", str(path)])
        assert code == 0
        assert json.loads(out)["char_poly"]["coeffs"] == ["1/1", "-2/1", "1/1"]

    @pytest.mark.parametrize("text", ['"5"', "[1,2]", '["12","34"]',
                                      "[[null]]", '{"rows": 5}'])
    def test_malformed_inline_matrix_is_input_error(self, capsys, text):
        code, _, err = invoke(capsys, ["charpoly", "--matrix", text])
        assert code == 1
        assert err.startswith("error: input:")
        assert err.count("\n") == 1

    def test_numeric_entry_not_a_pair_is_input_error(self, capsys):
        code, out, err = invoke(capsys, [
            "charpoly", "--matrix", '{"flavor":"numeric","rows":[[[1]]]}'])
        assert (code, out) == (1, "")
        assert err == "error: input: numeric matrix entries must be " \
                      "[re, im] pairs\n"

    @pytest.mark.parametrize("argv, message", [
        (["charpoly", "--matrix", "[[true]]"], "bad matrix entry"),
        (["sturm", "count", "--poly", '{"coeffs": [true, 1]}'],
         "bad polynomial coefficient"),
        (["charpoly", "--matrix", '{"flavor":"numeric","rows":[[[true,0]]]}'],
         "bad matrix entry"),
    ], ids=["exact-entry", "coefficient", "numeric-part"])
    def test_json_boolean_is_not_a_number(self, capsys, argv, message):
        # Python reads true as 1, so these once ran as [[1]], 1 + x and [[1]]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: input: {message}: true is not a number\n"

    @pytest.mark.parametrize("argv, message", [
        (["charpoly", "--matrix", '[["1/0"]]'], "bad matrix entry"),
        (["sturm", "count", "--poly", "1/0,1"], "bad polynomial coefficient"),
        (["sturm", "count", "--poly", "1,1", "--lo", "1/0"], "bad --lo"),
    ], ids=["matrix-entry", "coefficient", "lo"])
    def test_zero_denominator_names_the_input(self, capsys, argv, message):
        # these once read "error: input: Fraction(1, 0)"
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: input: {message}: 1/0 has a zero denominator\n"

    @pytest.mark.parametrize("argv, message", [
        (["sturm", "count", "--poly", "abc"], "bad polynomial coefficient"),
        (["sturm", "count", "--poly", "1,1", "--lo", "abc"], "bad --lo"),
    ], ids=["coefficient", "lo"])
    def test_malformed_number_names_the_input(self, capsys, argv, message):
        # these once read "error: input: Invalid literal for Fraction: 'abc'"
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (1, "")
        assert err == f"error: input: {message}: abc is not a number\n"

    @pytest.mark.parametrize("argv, message, text", [
        (["charpoly", "--matrix", '[["1e1000000000"]]'], "bad matrix entry",
         "1e1000000000"),
        (["sturm", "count", "--poly=1e-1000000000,1"],
         "bad polynomial coefficient", "1e-1000000000"),
    ], ids=["matrix-entry", "coefficient"])
    def test_exponent_past_the_bound_is_refused_at_once(self, capsys, argv,
                                                       message, text):
        # Fraction would compute 10**k: "1e10000000" alone took 8.2 s
        start = time.perf_counter()
        code, out, err = invoke(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (f"error: input: {message}: {text} has an exponent "
                       f"past {MAX_EXPONENT}\n")

    def test_exponent_at_the_bound_keeps_its_value(self):
        start = time.perf_counter()
        assert parse_rational("1e4300", "x") == Fraction(10) ** MAX_EXPONENT
        assert parse_rational("-2.5E-4300", "x") == Fraction(-25, 10 ** 4301)
        assert time.perf_counter() - start < 1.0

    def test_non_list_coeffs_is_input_error(self, capsys):
        code, out, err = invoke(capsys, [
            "sturm", "count", "--poly", '{"coeffs": 5}'])
        assert (code, out) == (1, "")
        assert err.startswith("error: input:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("cmd", ["inertia", "hermite-count", "interlace"])
    def test_exact_only_command_refuses_numeric_matrix(self, capsys, cmd):
        # eigenvalues 0.4, 1, 1: hermite-count once printed "distinct": 3,
        # "distinct_real": 1, a complex pair for a real symmetric matrix
        code, out, err = invoke(capsys, [cmd, "--matrix", (
            '{"flavor":"numeric","rows":[[[0.7,0],[0.3,0],[0,0]],'
            '[[0.3,0],[0.7,0],[0,0]],[[0,0],[0,0],[1,0]]]}')])
        assert (code, out) == (1, "")
        assert err == "error: input: operation requires exact flavor\n"

    @pytest.mark.parametrize("n", ["true", "1.0", '"1"', "null"])
    def test_declared_dimension_must_be_an_integer(self, capsys, n):
        # true == 1 and 1.0 == 1 in Python: both once passed as n = 1
        code, out, err = invoke(capsys, [
            "charpoly", "--matrix", '{"rows": [[1]], "n": %s}' % n])
        assert (code, out) == (1, "")
        assert err == "error: input: declared dimension must be an integer\n"

    def test_jordan_exact_flavor_of_numeric_matrix_is_input_error(
            self, capsys):
        code, out, err = invoke(capsys, [
            "jordan", "--flavor", "exact",
            "--matrix", '{"flavor":"numeric","rows":[[[1,0]]]}'])
        assert (code, out) == (1, "")
        assert err == "error: input: cannot promote a numeric matrix " \
                      "to exact\n"

    @pytest.mark.parametrize("matrix", [
        '[["1","2"],["3","4"]]',
        '{"flavor":"numeric","rows":[[[1,0],[2,0]],[[3,0],[4,0]]]}'])
    @pytest.mark.parametrize("x0", ["1", "1,2,3"])
    @pytest.mark.parametrize("form", [[], ["--form", "second"]],
                             ids=["jordan", "second"])
    def test_linsolve_x0_of_wrong_length_is_input_error(
            self, capsys, matrix, x0, form):
        code, out, err = invoke(capsys, [
            "linsolve", "--matrix", matrix, "--x0", x0, *form])
        assert (code, out) == (1, "")
        assert err.startswith("error: input: --x0 needs 2 values")

    @pytest.mark.parametrize("method", ["residue", "jordan"])
    def test_linsolve_has_no_method_flag(self, method):
        # x' = Ax has one solver, the Jordan route
        res = subprocess.run(
            [sys.executable, "-m", "secular.cli", "linsolve", "--matrix",
             '[["0","1"],["-1","0"]]', "--x0", "1,0", "--method", method],
            capture_output=True, text=True, timeout=60)
        assert (res.returncode, res.stdout) == (1, "")
        assert res.stderr == ("error: input: usage: unrecognized arguments: "
                              f"--method {method}\n")

    @pytest.mark.parametrize("v0", ["1", "1,2,3"])
    def test_linsolve_v0_of_wrong_length_is_input_error(self, capsys, v0):
        code, out, err = invoke(capsys, [
            "linsolve", "--matrix", '[["0","1"],["1","0"]]', "--x0", "1,0",
            "--form", "second", "--v0", v0])
        assert (code, out) == (1, "")
        assert err == ("error: input: --v0 needs 2 values, got "
                       f"{len(v0.split(','))}\n")

    # exact entries with no float image, which the solvers take as floats
    @pytest.mark.parametrize("argv, what", [
        (["--x0", "1e400,0"], "--x0"),
        (["--matrix", '[["1","0"],["0","2"]]', "--form", "second",
          "--x0", "1e400,0", "--v0", "0,0"], "--x0"),
        (["--matrix", '[["1","0"],["0","2"]]', "--form", "second",
          "--x0", "1,0", "--v0", "1e400,0"], "--v0"),
        (["--matrix", '[["1e400","0"],["0","1"]]', "--x0", "1,0"], "matrix"),
        (["--matrix", '[["0","1e400"],["-1","0"]]', "--x0", "1,0"], "matrix"),
        (["--form", "second", "--matrix", '[["1e400","0"],["0","2"]]',
          "--x0", "1,0"], "matrix"),
    ], ids=["jordan", "second-x0", "second-v0", "matrix-jordan",
            "off-diagonal-jordan", "second-matrix"])
    def test_linsolve_entry_past_the_floats_is_input_error(self, capsys,
                                                          argv, what):
        matrix = [] if "--matrix" in argv else [
            "--matrix", '[["0","1"],["-1","0"]]']
        code, out, err = invoke(capsys, ["linsolve", *matrix, *argv])
        assert (code, out) == (1, "")
        assert err == (f"error: input: bad {what} entry: 1e400 has no float "
                       "image\n")

    @pytest.mark.parametrize("option, value, message", [
        # every seed on the fixed point: its own rounding made a branch
        ("--seed-offset", "0", "seed offset must be positive and finite, "
                               "got 0.0"),
        ("--seed-offset", "-1e-06", "seed offset must be positive and "
                                    "finite, got -1e-06"),
        ("--seed-offset", "inf", "seed offset must be positive and finite, "
                                 "got inf"),
        ("--seeds", "0", "seeds must be >= 1"),
        ("--seeds", "-2", "seeds must be >= 1"),
        ("--steps", "0", "steps must be >= 1"),
    ])
    def test_degenerate_manifold_input_is_input_error(self, capsys, option,
                                                      value, message):
        code, out, err = invoke(capsys, [
            "section", "manifolds", "--mu", "0.012150585",
            "--C", "3.1882812173139823", "--fixed", "0.8359151287720265,0.0",
            f"{option}={value}"])
        assert (code, out) == (1, "")
        assert err == f"error: input: {message}\n"

    @pytest.mark.parametrize("point, y", [("L4", "0.866025"),
                                          ("L5", "-0.866025")])
    def test_orbit_off_the_axis_is_input_error(self, capsys, point, y):
        code, out, err = invoke(capsys, [
            "pcr3bp", "orbit", "--mu", "0.01", "--point", point])
        assert (code, out) == (1, "")
        assert err == ("error: input: no Lyapunov seed off the x-axis: "
                       f"{point} is at y = {y}\n")

    def test_linsolve_v0_needs_second_form(self, capsys, worked_matrix):
        code, out, err = invoke(capsys, [
            "linsolve", "--matrix", worked_matrix, "--x0", "1,0,0",
            "--v0", "0,1,0"])
        assert (code, out) == (1, "")
        assert err == "error: input: usage: --v0 applies only to --form " \
                      "second\n"

    def test_version(self):
        out = subprocess.run(
            [sys.executable, "-m", "secular.cli", "--version"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert out.stdout.strip().count(".") == 2


class TestJsonOutputs:
    def test_charpoly_round_trip(self, capsys, worked_matrix):
        code, out, _ = invoke(capsys, ["charpoly", "--matrix", worked_matrix])
        assert code == 0
        payload = json.loads(out)
        p = RationalPolynomial.from_json(json.dumps(payload["char_poly"]))
        # S(S-1)(S-3) = -0 + 3S - 4S^2 + S^3
        assert [str(c) for c in p.coeffs] == ["0", "3", "-4", "1"]
        assert "config" in payload

    def test_inertia_worked_example(self, capsys, worked_matrix):
        code, out, _ = invoke(capsys, ["inertia", "--matrix", worked_matrix])
        assert code == 0
        payload = json.loads(out)
        assert payload["inertia"] == {"pos": 2, "neg": 0, "zero": 1}

    def test_jordan_round_trip(self, capsys, worked_matrix):
        code, out, _ = invoke(capsys, ["jordan", "--matrix", worked_matrix,
                                       "--classify3"])
        assert code == 0
        payload = json.loads(out)
        J = SquareMatrix.from_json(json.dumps(payload["J"]))
        assert sorted(str(J[i, i]) for i in range(3)) == ["0", "1", "3"]
        assert all(b["sizes"] == [1] for b in payload["blocks"])
        assert "type3" in payload

    def test_hermite_count(self, capsys, worked_matrix):
        code, out, _ = invoke(capsys,
                              ["hermite-count", "--matrix", worked_matrix])
        assert code == 0
        payload = json.loads(out)
        assert payload == {**payload, "distinct": 3, "distinct_real": 3}

    def test_interlace(self, capsys, worked_matrix):
        code, out, _ = invoke(capsys, ["interlace", "--matrix", worked_matrix])
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_linsolve_second_form_prints_frozen_bytes(self, capsys):
        # x'' = A x for A = [[2, -1], [-1, 2]]: modes of alpha 1 and 3,
        # so exponents +-1 and +-sqrt(3), from x0 = (1, 0) at rest
        assert invoke(capsys, [
            "linsolve", "--matrix", '[["2","-1"],["-1","2"]]', "--x0", "1,0",
            "--form", "second", "--v0", "0,0"]) == (0, (
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "modes": [{"alpha": 1.0, "rate": 1.0, '
                '"vector": [-0.7071067811865475, -0.7071067811865475]}, '
                '{"alpha": 3.0, "rate": 1.7320508075688772, "vector": '
                '[-0.7071067811865475, 0.7071067811865475]}], '
                '"strict_lagrange": false, "terms": [{"lambda": '
                '[-1.7320508075688772, 0.0], "poly": [[[0.24999999999999994, '
                '0.0], [-0.24999999999999994, 0.0]]]}, {"lambda": [-1.0, '
                '0.0], "poly": [[[0.24999999999999994, 0.0], '
                '[0.24999999999999994, 0.0]]]}, {"lambda": [1.0, 0.0], '
                '"poly": [[[0.24999999999999994, 0.0], [0.24999999999999994, '
                '0.0]]]}, {"lambda": [1.7320508075688772, 0.0], "poly": '
                '[[[0.24999999999999994, 0.0], [-0.24999999999999994, '
                '0.0]]]}], "verdict": "exponentially_unstable"}\n'), "")

    def test_pcr3bp_stability_verdict(self, capsys):
        code, out, _ = invoke(capsys, [
            "pcr3bp", "stability", "--mu", "0.01", "--point", "L4",
        ])
        assert code == 0
        assert json.loads(out)["verdict"] == "stable"

    def test_lagrange_for_tiny_mu(self, capsys):
        # L1 lies about (mu/3)^(1/3) = 7e-15 below 1 - mu, closer than the
        # 1e-13 refinement width: its midpoint once fell past the segment
        code, out, _ = invoke(capsys, ["pcr3bp", "lagrange", "--mu", "1e-42"])
        assert code == 0
        x = {p["label"]: p["position"][0] for p in json.loads(out)["points"]}
        assert x["L1"] < 1.0 < x["L2"]

    def test_floquet_hill_point(self, capsys):
        code, out, _ = invoke(capsys, ["floquet", "--a", "1.0", "--q", "0.2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "unstable_exponential"


# The exact commands' stdout on literal matrices, with non-integer
# denominators, repeated eigenvalues (2 in 4x4-planted, 1 in 6x6-planted),
# a zero one, and zero diagonals that make the completion of squares swap
# or add a variable: any rewrite of the exact core must print the same bytes.
EXACT_GOLDEN = {
    '1x1': (
        '[["-7/3"]]',
        {
            'charpoly':
                '{"char_poly": {"coeffs": ["7/3", "1/1"]},'
                ' "config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}}\n',
            'inertia':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "inertia": {"neg": 1, "pos": 0,'
                ' "zero": 0}, "signature": -1}\n',
            'hermite-count':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "distinct": 1, "distinct_real": 1}\n',
            'interlace':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "gaps": [], "inner_intervals": [],'
                ' "outer_intervals": [["-10/3", "10/3"]], "passed": true}\n',
        }),
    '2x2-halves': (
        '[["1/2", "1/3"], ["1/3", "1/5"]]',
        {
            'charpoly':
                '{"char_poly": {"coeffs": ["-1/90", "-7/10", "1/1"]},'
                ' "config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}}\n',
            'inertia':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "inertia": {"neg": 1, "pos": 1,'
                ' "zero": 0}, "signature": 0}\n',
            'hermite-count':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "distinct": 2, "distinct_real": 2}\n',
            'interlace':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "gaps": [true],'
                ' "inner_intervals": [["-6/5", "6/5"]],'
                ' "outer_intervals": [["-17/10", "0/1"], ["0/1", "17/10"]],'
                ' "passed": true}\n',
        }),
    '3x3-mixed': (
        '[["5/3", "-1/6", "2"], ["-1/6", "0", "1/9"], ["2", "1/9",'
        ' "-7/2"]]',
        {
            'charpoly':
                '{"char_poly": {"coeffs": ["-5/1944", "-3199/324", "11/6",'
                ' "1/1"]}, "config": {"cluster_tol": 1e-08,'
                ' "integrator_tol": 1e-10, "version": "0.1.0"}}\n',
            'inertia':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "inertia": {"neg": 2, "pos": 1,'
                ' "zero": 0}, "signature": -1}\n',
            'hermite-count':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "distinct": 3, "distinct_real": 3}\n',
            'interlace':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "gaps": [true, true],'
                ' "inner_intervals": [["-9/2", "0/1"], ["0/1", "9/2"]],'
                ' "outer_intervals": [["-3523/648", "-3523/1296"],'
                ' ["-3523/1296", "0/1"], ["0/1", "3523/324"]],'
                ' "passed": true}\n',
        }),
    '4x4-planted': (
        '[["546/625", "-208/625", "-352/625", "-904/625"],'
        ' ["-208/625", "1359/625", "-104/625", "-608/625"],'
        ' ["-352/625", "-104/625", "1074/625", "-452/625"],'
        ' ["-904/625", "-608/625", "-452/625", "771/625"]]',
        {
            'charpoly':
                '{"char_poly": {"coeffs": ["-12/1", "4/1", "9/1", "-6/1",'
                ' "1/1"]}, "config": {"cluster_tol": 1e-08,'
                ' "integrator_tol": 1e-10, "version": "0.1.0"}}\n',
            'inertia':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "inertia": {"neg": 1, "pos": 3,'
                ' "zero": 0}, "signature": 2}\n',
            'hermite-count':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "distinct": 3, "distinct_real": 3}\n',
            'interlace':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "gaps": [true, true, true],'
                ' "inner_intervals": [["0/1", "2513/2500"], ["2513/2500",'
                ' "2513/1250"], ["2513/1250", "2513/625"]],'
                ' "outer_intervals": [["-7/1", "0/1"], ["7/4", "21/8"],'
                ' ["21/8", "7/2"]], "passed": true}\n',
        }),
    '5x5-integer': (
        '[["2", "-1", "0", "3", "1"], ["-1", "4", "2", "0", "-2"],'
        ' ["0", "2", "-3", "1", "1"], ["3", "0", "1", "1", "-1"],'
        ' ["1", "-2", "1", "-1", "0"]]',
        {
            'charpoly':
                '{"char_poly": {"coeffs": ["-56/1", "167/1", "83/1",'
                ' "-29/1", "-4/1", "1/1"]},'
                ' "config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}}\n',
            'inertia':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "inertia": {"neg": 2, "pos": 3,'
                ' "zero": 0}, "signature": 1}\n',
            'hermite-count':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "distinct": 5, "distinct_real": 5}\n',
            'interlace':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "gaps": [true, true, true, true],'
                ' "inner_intervals": [["-29/4", "-29/8"], ["-29/8", "0/1"],'
                ' ["0/1", "29/8"], ["29/8", "29/4"]],'
                ' "outer_intervals": [["-21/4", "-21/8"], ["-21/8", "0/1"],'
                ' ["0/1", "21/8"], ["21/8", "21/4"], ["21/4", "21/2"]],'
                ' "passed": true}\n',
        }),
    '6x6-planted': (
        '[["55537/70225", "14184/70225", "-10296/70225",'
        ' "14688/70225", "4392/70225", "-26424/70225"],'
        ' ["14184/70225", "-129362/70225", "34728/70225",'
        ' "-14184/70225", "20544/70225", "732/70225"],'
        ' ["-10296/70225", "34728/70225", "105361/140450",'
        ' "10296/70225", "27864/70225", "-43308/70225"],'
        ' ["14688/70225", "-14184/70225", "10296/70225",'
        ' "55537/70225", "-4392/70225", "26424/70225"],'
        ' ["4392/70225", "20544/70225", "27864/70225",'
        ' "-4392/70225", "23472/70225", "-16884/70225"],'
        ' ["-26424/70225", "732/70225", "-43308/70225",'
        ' "26424/70225", "-16884/70225", "187923/70225"]]',
        {
            'charpoly':
                '{"char_poly": {"coeffs": ["0/1", "3/1", "-23/2", "25/2",'
                ' "-3/2", "-7/2", "1/1"]}, "config": {"cluster_tol": 1e-08,'
                ' "integrator_tol": 1e-10, "version": "0.1.0"}}\n',
            'inertia':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "inertia": {"neg": 1, "pos": 4,'
                ' "zero": 1}, "signature": 3}\n',
            'hermite-count':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "distinct": 5, "distinct_real": 5}\n',
            'interlace':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10,'
                ' "version": "0.1.0"}, "gaps": [true, true, true, true,'
                ' true], "inner_intervals": [["-1449187/140450", "0/1"],'
                ' ["0/1", "1449187/2247200"], ["1449187/2247200",'
                ' "4347561/4494400"], ["4347561/4494400",'
                ' "1449187/1123600"], ["1449187/561800",'
                ' "1449187/280900"]],'
                ' "outer_intervals": [["-53557841249999/22550670000000",'
                ' "-160673523749993/135304020000000"],'
                ' ["-160673523749993/135304020000000", "1/16913002500000"],'
                ' ["1/16913002500000", "10711568250001/18040536000000"],'
                ' ["10711568250001/18040536000000",'
                ' "160673523750007/135304020000000"],'
                ' ["53557841250001/22550670000000",'
                ' "160673523750001/33826005000000"]], "passed": true}\n',
        }),
    '2x2-hyperbolic': (
        '[["0", "1/2"], ["1/2", "0"]]',
        {
            'charpoly':
                '{"char_poly": {"coeffs": ["-1/4", "0/1", "1/1"]}, "config": '
                '{"cluster_tol": 1e-08, "integrator_tol": 1e-10, "version": '
                '"0.1.0"}}\n',
            'inertia':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "inertia": {"neg": 1, "pos": 1, "zero": '
                '0}, "signature": 0}\n',
            'hermite-count':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "distinct": 2, "distinct_real": 2}\n',
            'interlace':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "gaps": [true], "inner_intervals": '
                '[["-1/1", "1/1"]], "outer_intervals": [["-5/4", "0/1"], '
                '["0/1", "5/4"]], "passed": true}\n',
        }),
    '3x3-zero-diagonal': (
        '[["0", "0", "1"], ["0", "0", "1"], ["1", "1", "0"]]',
        {
            'charpoly':
                '{"char_poly": {"coeffs": ["0/1", "-2/1", "0/1", "1/1"]}, '
                '"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}}\n',
            'inertia':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "inertia": {"neg": 1, "pos": 1, "zero": '
                '1}, "signature": 0}\n',
            'hermite-count':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "distinct": 3, "distinct_real": 3}\n',
            'interlace':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "gaps": [true, true], '
                '"inner_intervals": [["-2/1", "0/1"], ["0/1", "2/1"]], '
                '"outer_intervals": [["-93311/62208", "-31103/41472"], '
                '["-31103/41472", "1/31104"], ["1/31104", "3/1"]], "passed": '
                'true}\n',
        }),
    '4x4-zero-blocks': (
        '[["0", "0", "1/3", "2"], ["0", "0", "-1", "1/2"], ["1/3", "-1", "0", '
        '"0"], ["2", "1/2", "0", "0"]]',
        {
            'charpoly':
                '{"char_poly": {"coeffs": ["169/36", "0/1", "-193/36", "0/1", '
                '"1/1"]}, "config": {"cluster_tol": 1e-08, "integrator_tol": '
                '1e-10, "version": "0.1.0"}}\n',
            'inertia':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "inertia": {"neg": 2, "pos": 2, "zero": '
                '0}, "signature": 0}\n',
            'hermite-count':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "distinct": 4, "distinct_real": 4}\n',
            'interlace':
                '{"config": {"cluster_tol": 1e-08, "integrator_tol": 1e-10, '
                '"version": "0.1.0"}, "gaps": [true, true, true], '
                '"inner_intervals": [["-437399/388800", "-145799/259200"], '
                '["-145799/259200", "1/194400"], ["1/194400", "9/4"]], '
                '"outer_intervals": [["-229/72", "-229/144"], ["-229/144", '
                '"0/1"], ["0/1", "229/144"], ["229/144", "229/72"]], '
                '"passed": true}\n',
        }),
}



@pytest.mark.parametrize("name", list(EXACT_GOLDEN))
def test_exact_commands_print_frozen_bytes(capsys, name):
    matrix, outputs = EXACT_GOLDEN[name]
    for cmd, expected in outputs.items():
        assert invoke(capsys, [cmd, "--matrix", matrix]) == (0, expected, "")


def _seeded_exact_corpus():
    """Rational symmetric matrices, n = 1..7, with p/q entries: per n one
    drawn at random and one H D H, H a rational Householder reflection and
    D with a repeated eigenvalue."""
    rng = random.Random(31)
    mats = []
    for n in range(1, 8):
        M = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(n)] for _ in range(n)]
        mats.append([[M[min(i, j)][max(i, j)] for j in range(n)]
                     for i in range(n)])
        eigs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(n)]
        if n > 1:
            i, j = rng.sample(range(n), 2)
            eigs[j] = eigs[i]
        v = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]
        vv = sum(x * x for x in v)
        H = [[int(r == c) - 2 * v[r] * v[c] / vv for c in range(n)]
             for r in range(n)]
        mats.append([[sum(H[r][k] * eigs[k] * H[k][c] for k in range(n))
                      for c in range(n)] for r in range(n)])
    return mats


def test_exact_commands_on_seeded_corpus_print_frozen_bytes(capsys):
    # the exact commands' bytes on 14 matrices, jordan's "irrational
    # eigenvalues" refusals of the random ones included, as one digest
    digest = hashlib.sha256()
    for M in _seeded_exact_corpus():
        text = json.dumps({"rows": [[str(x) for x in r] for r in M]})
        for cmd in ("charpoly", "inertia", "hermite-count", "interlace",
                    "jordan"):
            code, out, err = invoke(capsys, [cmd, "--matrix", text])
            digest.update(f"{code}\n{out}{err}".encode())
    assert digest.hexdigest() == (
        "6d1a0677f129982e28b165f34b45e11b95d8aa19119f34a3d0ed3f014892725f")


class TestDeterminism:
    def test_identical_bytes(self, capsys, worked_matrix):
        runs = []
        for _ in range(2):
            code, out, _ = invoke(capsys, ["jordan", "--matrix", worked_matrix])
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_csv_config_echo(self, capsys):
        code, out, _ = invoke(capsys, [
            "pcr3bp", "propagate", "--mu", "0.01",
            "--state", "0.5,0.3,0.2,-0.1", "--t", "1.0", "--samples", "3",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# ")
        assert "integrator_tol=1e-10" in lines[0]
        assert lines[1] == "t,x,y,vx,vy,C"
        assert len(lines) == 5


def _counted(monkeypatch, name, modules):
    """Record the flavor of every call of ``name`` at the given modules."""
    calls = []
    real = getattr(importlib.import_module(modules[0]), name)

    def counted(A, *args, **kwargs):
        calls.append(A.flavor)
        return real(A, *args, **kwargs)
    for module in modules:
        monkeypatch.setattr(f"{module}.{name}", counted)
    return calls


X4_PLUS_1 = '[["0","1","0","0"],["0","0","1","0"],["0","0","0","1"],' \
    '["-1","0","0","0"]]'  # companion matrix of x^4 + 1: no rational root


class TestOneJordanForm:
    @pytest.mark.parametrize("matrix, form, flavors", [
        (X4_PLUS_1, [], ["exact", "numeric"]),
        ('[["0","1"],["0","0"]]', [], ["exact"]),
        ('{"flavor":"numeric","rows":[[[0,0],[1,0]],[[-1,0],[0,0]]]}', [],
         ["numeric"]),
        ('[["2","-1"],["-1","2"]]', ["--form", "second"], ["exact"]),
    ], ids=["x4+1-jordan", "jordan-block-jordan", "numeric-jordan",
            "symmetric-second"])
    def test_linsolve_builds_it_once(self, capsys, monkeypatch, matrix, form,
                                     flavors):
        # the solver and the stability verdict read one decomposition:
        # one exact attempt, and a numeric one only if that fails
        calls = _counted(monkeypatch, "jordan_form", ["secular.linode"])
        n = json.loads(matrix)["rows"] if matrix.startswith("{") else \
            json.loads(matrix)
        code, _, err = invoke(capsys, [
            "linsolve", "--matrix", matrix, *form,
            "--x0", ",".join(["1"] * len(n))])
        assert (code, err) == (0, "")
        assert calls == flavors

    def test_jordan_classify3_builds_it_once(self, capsys, monkeypatch):
        forms = _counted(monkeypatch, "jordan_form",
                         ["secular.jordan", "secular.cli"])
        polys = _counted(monkeypatch, "char_poly", ["secular.jordan"])
        code, out, _ = invoke(capsys, [
            "jordan", "--classify3", "--matrix",
            '[["2","1","0"],["0","2","0"],["0","0","3"]]'])
        assert code == 0
        assert json.loads(out)["type3"] == {"tag": "B", "scalar": False}
        assert (forms, polys) == (["exact"], ["exact"])

    @pytest.mark.parametrize("argv", [["jordan"],
                                      ["linsolve", "--x0", "0,1"]])
    def test_huge_rational_eigenvalue_is_read_off_at_once(self, argv):
        # the eigenvalue is read off the Sturm isolation; the timeout makes
        # a search as slow as trial division fail instead of hang
        big = 10 ** 300
        res = subprocess.run(
            [sys.executable, "-m", "secular.cli", *argv, "--matrix",
             '[["1e300","1"],["0","1e300"]]'],
            capture_output=True, text=True, timeout=30)
        assert (res.returncode, res.stderr) == (0, "")
        out = json.loads(res.stdout)
        if argv[0] == "jordan":
            assert out["blocks"] == [{"lambda": f"{big}/1", "sizes": [2]}]
        else:  # one 2-block: x(t) = e^{lam t} (x0 + t N x0)
            assert [(t["lambda"], len(t["poly"])) for t in out["terms"]] \
                == [([float(big), 0.0], 2)]

    def test_linsolve_clusters_at_the_cluster_tol(self, capsys):
        # at --cluster-tol 1e-3 the eigenvalues 1 and 1 + 1e-6 are one
        # 2-block, as jordan prints it, so the solution is one term whose
        # poly has a t^1 coefficient
        M = '{"flavor":"numeric","rows":[[[1,0],[1,0]],[[0,0],[1.000001,0]]]}'
        _, out, _ = invoke(capsys, [
            "--cluster-tol", "1e-3", "jordan", "--matrix", M])
        lams = [b["lambda"] for b in json.loads(out)["blocks"]]
        code, out, err = invoke(capsys, [
            "--cluster-tol", "1e-3", "linsolve", "--matrix", M, "--x0", "0,1"])
        assert (code, err) == (0, "")
        terms = json.loads(out)["terms"]
        assert [t["lambda"] for t in terms] == lams
        assert [len(t["poly"]) for t in terms] == [2]

    @pytest.mark.parametrize("tol, strict", [("1e-8", True), ("1e-3", False)])
    def test_linsolve_second_form_clusters_at_the_cluster_tol(
            self, capsys, tol, strict):
        # alpha = -1 and -1 - 1e-6 are distinct at 1e-8, one double
        # eigenvalue at 1e-3: Lagrange's criterion needs them distinct
        code, out, err = invoke(capsys, [
            "--cluster-tol", tol, "linsolve", "--form", "second", "--matrix",
            '{"flavor":"numeric","rows":[[[-1,0],[0,0]],[[0,0],[-1.000001,0]]]}',
            "--x0", "1,0"])
        assert (code, err) == (0, "")
        assert json.loads(out)["strict_lagrange"] is strict

    def test_classify3_tag_reads_the_printed_blocks(self, capsys):
        # at --cluster-tol 1e-4 the eigenvalues 1 and 1 + 1e-6 are one
        # double eigenvalue with two 1-blocks, so the tag is C, not A
        row = '[[1,0],[0,0],[0,0]],[[0,0],[1.000001,0],[0,0]],' \
            '[[0,0],[0,0],[5,0]]'
        code, out, _ = invoke(capsys, [
            "--cluster-tol", "1e-4", "jordan", "--classify3", "--matrix",
            '{"flavor":"numeric","rows":[' + row + ']}'])
        assert code == 0
        payload = json.loads(out)
        assert sorted(len(b["sizes"]) for b in payload["blocks"]) == [1, 2]
        assert payload["type3"] == {"tag": "C", "scalar": False}


class TestSection:
    def test_crossings_csv(self, capsys):
        code, out, _ = invoke(capsys, [
            "section", "--mu", "0.012150585", "--C", "3.1882812173139823",
            "--start", "0.22,0.0", "--n", "2",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "i,x,vx"
        assert len(lines) == 4

    def test_bad_mass_ratio_is_input_error(self, capsys):
        code, out, err = invoke(capsys, [
            "--format", "csv", "section", "crossings", "--mu", "0.9",
            "--C", "3.0", "--start", "0.3,0.0", "--n", "1",
        ])
        assert code == 1
        assert out == ""
        assert err.startswith("error: input: mass ratio")

    def test_manifolds_linearize_once(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return linearize_map(*args, **kwargs)
        for module in ("secular.section", "secular.cli"):
            monkeypatch.setattr(f"{module}.linearize_map", counted,
                                raising=False)
        code, _, _ = invoke(capsys, [
            "section", "manifolds", "--mu", "0.012150585",
            "--C", "3.1882812173139823", "--fixed", "0.8359151287720265,0.0",
            "--steps", "1", "--seeds", "2",
        ])
        assert code == 0
        assert len(calls) == 1

    def test_seeds_colliding_together_each_report_their_own(self, capsys):
        # three stable seeds fall into the Moon in the same RHS call; the
        # branch's warning names one of them
        code, _, err = invoke(capsys, [
            "section", "manifolds", "--mu", "0.012150585",
            "--C", "2.951548215257128",
            "--fixed", "0.8839169568198127,-0.5073903093806584",
            "--steps", "1", "--seeds", "3", "--seed-offset", "1e-9"])
        assert code == 0
        assert err == ("warning: stable+ branch truncated: iterate 0: state "
                       "within collision radius of a primary (r1=1, "
                       "r2=9.97e-07)\n")

    def test_truncated_branch_says_so(self, capsys):
        # seeds 0.02 from the fixed point start outside the allowed region;
        # on vx = 0 stable+ is R of unstable+, so it is cut short with it,
        # at the mirror of the point unstable+ could not lift
        argv = ["section", "manifolds", "--mu", "0.012150585",
                "--C", "3.1882812173139823",
                "--fixed", "0.8359151287720265,0.0", "--steps", "2",
                "--seeds", "3"]
        code, _, err = invoke(capsys, argv)
        assert code == 0
        assert err == ""
        code, out, err = invoke(capsys, [*argv, "--seed-offset", "0.02"])
        assert code == 0
        assert "homoclinic" in json.loads(out)
        unstable, stable = err.splitlines()
        assert unstable.startswith("warning: unstable+ branch truncated: "
                                   "iterate 0: section point (")
        assert "outside the energetically allowed region" in unstable
        x, vx = unstable.split("(", 1)[1].split(")", 1)[0].split(", ")
        assert stable == unstable.replace(
            "unstable+", "stable+").replace(f"({x}, {vx})",
                                            f"({x}, {-float(vx)!r})")

    def test_truncated_stable_branch_says_so(self, capsys):
        # the "fixed" point is a section point whose reversed-time flight
        # falls straight into the Moon; the run takes its linearization
        # as given, and the seed nearest the point collides on the way
        # back while the other stable seeds fly on
        code, out, err = invoke(capsys, [
            "section", "manifolds", "--mu", "0.012150585",
            "--C", "2.951548215257128",
            "--fixed", "0.8839169568198127,-0.5073903093806584",
            "--steps", "2", "--seeds", "4", "--seed-offset", "1e-2"])
        assert code == 0
        assert len(json.loads(out)["stable_polyline"]) == 4
        assert err == (
            "warning: unstable+ branch truncated: iterate 0: section point "
            "(1.0637369477754124, -0.6904319165195243) outside the "
            "energetically allowed region at C=2.951548215257128\n"
            "warning: stable+ branch truncated: iterate 0: state within "
            "collision radius of a primary (r1=1, r2=9.97e-07)\n")

    def test_output_file(self, capsys, tmp_path, worked_matrix):
        dest = tmp_path / "out.json"
        code, out, _ = invoke(capsys, [
            "--output", str(dest), "inertia", "--matrix", worked_matrix,
        ])
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["inertia"]["pos"] == 2


def _readme_cli_lines():
    """Every `secular ...` command of the README's CLI block, as written."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("secular ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_example_runs(capsys, line):
    code, out, err = invoke(capsys, shlex.split(line)[1:])
    assert code == 0, err
    assert out


# the README manifolds run's stdout, frozen: a change to how the flights
# are done keeps every crossing's bits.  Its stable branch is R of its
# unstable one.  ROADMAP item 4 (a homoclinic point that converges, with
# its error) moves the output on purpose and re-freezes this digest.
README_MANIFOLDS_SHA256 = (
    "52a6f38e364d95aff6d75fac9d58f464f49d2c88e28a18b9722ab5657ef0f67c")


def test_readme_manifolds_keep_their_bytes(capsys):
    line, = (line for line in _readme_cli_lines() if " manifolds " in line)
    code, out, err = invoke(capsys, shlex.split(line)[1:])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == README_MANIFOLDS_SHA256


@pytest.mark.parametrize("vx, width", [("0.0", 40), ("1e-9", 80)])
def test_readme_manifolds_fly_one_stack(capsys, monkeypatch, vx, width):
    # the README run's fixed point is on vx = 0, so its stable branch is
    # the mirror of its unstable one and only the unstable seeds fly: one
    # stack of 40.  Moved off the line, both branches fly: one of 80
    flights = []

    def counted(rhs, z0, *args):
        flights.append(np.shape(z0))
        return _flow_to_crossing(rhs, z0, *args)
    monkeypatch.setattr("secular.section._flow_to_crossing", counted)
    line, = (line for line in _readme_cli_lines() if " manifolds " in line)
    argv = shlex.split(line)[1:]
    x, _ = argv[argv.index("--fixed") + 1].split(",")
    argv[argv.index("--fixed") + 1] = f"{x},{vx}"
    code, _, _ = invoke(capsys, argv)
    assert code == 0
    # the fixed point's STM linearization, then the one stacked flight
    assert flights == [(20,), (4, width)]


def test_readme_orbit_flies_loose_then_full(capsys, monkeypatch):
    # the corrector's flights for the README orbit: loose at 1e-8 first,
    # the last at the CLI's integrator_tol, 49 step tries in all (four
    # flights at 1e-10 made 64)
    flights = []

    def counted(f, x0, t_span, tol, **kwargs):
        traj = integrate(f, x0, t_span, tol, **kwargs)
        flights.append((tol, int(traj.accepted_steps.sum()
                                 + traj.rejected_steps.sum())))
        return traj
    monkeypatch.setattr("secular.pcr3bp.integrate", counted)
    line, = (line for line in _readme_cli_lines() if " orbit " in line)
    code, _, _ = invoke(capsys, shlex.split(line)[1:])
    assert code == 0
    assert flights[0][0] == 1e-8 and flights[-1][0] == 1e-10
    assert sum(tries for _, tries in flights) == 49


def test_readme_names_every_global_flag():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = text.split("Global flags (", 1)[1].split(")", 1)[0]
    options = {s for action in cli._PARSER._actions
               for s in action.option_strings}
    assert set(re.findall(r"`(--[\w-]+)`", sentence)) == \
        options - {"-h", "--help", "--version"}


def test_run_builds_no_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert invoke(capsys, ["sturm", "count", "--poly=-2,0,1"]) == \
            (0, "2\n", "")
    assert len(built) == 0


def test_readme_examples_repeat_in_process(capsys):
    # the second pass runs in reverse order, so no call sees state that
    # the call before it left in the shared parser or elsewhere
    argvs = [shlex.split(line)[1:] for line in _readme_cli_lines()]
    first = [invoke(capsys, argv) for argv in argvs]
    again = [invoke(capsys, argv) for argv in reversed(argvs)]
    assert again[::-1] == first


# -- malformed JSON input: exit 1 with one line, never a traceback ----------

_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-9, 9),
    st.text(alphabet="abz ./", max_size=3))
# values that no matrix entry or coefficient accepts
_not_a_number = st.one_of(
    st.none(), st.text(alphabet="abz ./", max_size=3),
    st.lists(st.integers(-9, 9), max_size=2),
    st.dictionaries(st.text(alphabet="ab", max_size=1), st.integers(),
                    max_size=1),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]))
_not_a_pair = st.one_of(
    _json_scalars,
    st.lists(st.integers(-9, 9), max_size=4).filter(lambda v: len(v) != 2),
    st.tuples(_not_a_number, st.integers(-9, 9)).map(list),
    st.tuples(st.integers(-9, 9), _not_a_number).map(list))


@st.composite
def _malformed_matrix(draw):
    n = draw(st.integers(1, 3))
    flavor = draw(st.sampled_from(["exact", "numeric"]))
    entry = (st.integers(-3, 3) if flavor == "exact"
             else st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    data = {"flavor": flavor, "rows": rows}
    defect = draw(st.sampled_from(
        ["entry", "ragged", "row", "rows", "empty", "n", "flavor"]))
    if defect == "entry":
        rows[i][j] = draw(_not_a_number if flavor == "exact"
                          else _not_a_pair)
    elif defect == "ragged":
        del rows[i][j]
    elif defect == "row":
        rows[i] = draw(_json_scalars)
    elif defect == "rows":
        data["rows"] = draw(_json_scalars)
    elif defect == "empty":
        data["rows"] = []
    elif defect == "n":  # a wrong size, or n itself as no JSON integer
        data["n"] = draw(st.one_of(
            st.integers(1, 3).map(lambda k: n + k),
            st.sampled_from([True, False, float(n), str(n), None, [n]])))
    else:
        data["flavor"] = draw(st.text(alphabet="xyz", min_size=1, max_size=3))
    return json.dumps(data)


@st.composite
def _malformed_poly(draw):
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    defect = draw(st.sampled_from(["coeffs", "entry", "key"]))
    if defect == "coeffs":
        return json.dumps({"coeffs": draw(_json_scalars)})
    if defect == "entry":
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(_not_a_number)
        return json.dumps({"coeffs": coeffs})
    return json.dumps({"coefs": coeffs})


@given(st.one_of(_malformed_matrix().map(lambda t: ["charpoly", "--matrix", t]),
                 _malformed_poly().map(lambda t: ["sturm", "count", "--poly", t])))
@example(["charpoly", "--matrix", '{"rows": [[1]], "n": true}'])
@example(["charpoly", "--matrix", '{"rows": [[1, 0], [0, 1]], "n": 2.0}'])
@settings(max_examples=150, deadline=None)
def test_malformed_json_is_one_line_input_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("error: input:")
    assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["floquet", "--system", "hill", "--a", "1.0", "--q", "nan"],
    ["floquet", "--system", "hill", "--a", "inf", "--q", "0.2"],
    ["--format", "csv", "floquet", "--system", "hill",
     "--grid", "0.5:1.5:2,0:nan:2"],
    ["--format", "csv", "floquet", "--system", "hill",
     "--grid", "0.5:1.5:0,0:0.4:9"],
    ["--tol", "nan", "floquet", "--system", "hill", "--a", "1.0",
     "--q", "0.2"],
    ["--tol", "inf", "floquet", "--system", "hill", "--a", "1.0",
     "--q", "0.2"],
    ["--cluster-tol", "nan", "floquet", "--system", "hill", "--a", "1.0",
     "--q", "0.2"],
    ["--format", "csv", "pcr3bp", "propagate", "--mu", "0.01",
     "--state", "0.5,nan,0.2,-0.1", "--t", "1.0"],
    ["--format", "csv", "pcr3bp", "propagate", "--mu", "0.01",
     "--state", "0.5,0.3,0.2,-0.1", "--t", "inf"],
    ["--format", "csv", "pcr3bp", "propagate", "--mu", "nan",
     "--state", "0.5,0.3,0.2,-0.1", "--t", "1.0"],
    ["pcr3bp", "stability", "--mu", "5e-324", "--point", "L3"],
    ["section", "crossings", "--mu", "0.012150585", "--C", "nan",
     "--start", "0.86,0.0"],
    ["section", "manifolds", "--mu", "0.012150585", "--C", "nan",
     "--fixed", "0.8359151287720265,0.0"],
])
def test_non_finite_input_is_one_line_input_error(capsys, argv):
    # each of these once flew forever: a NaN derivative made the first
    # step NaN, which no step-size test catches
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: input:")
    assert err.count("\n") == 1
    if "--C" in argv:  # the section names its bad constant
        assert "Jacobi constant C must be finite" in err
    if "--mu" in argv and argv[argv.index("--mu") + 1] == "nan":
        assert "mass ratio must lie in (0, 1/2], got nan" in err
    if "5e-324" in argv:  # a subnormal mu, at which L3's q underflows
        assert "mass ratio 5e-324 is subnormal" in err


@pytest.mark.parametrize("argv", [
    ["floquet", "--system", "hill", "--a", "1e308", "--q", "1e308"],
    ["--format", "csv", "floquet", "--system", "hill",
     "--grid", "1e308:1e308:2,1e308:1e308:1"],
    ["--format", "csv", "pcr3bp", "propagate", "--mu", "0.01",
     "--state=1e200,0.3,0.2,-0.1", "--t", "1", "--samples", "3"],
    # the STM flight from x = 1e70, where Python's r1 ** 5 overflows
    ["section", "manifolds", "--mu", "0.012150585", "--C", "3",
     "--fixed", "1e70,0.0"],
])
def test_overflowing_input_is_one_line_error(capsys, argv):
    # finite inputs whose values overflow: the flight reports the failure,
    # and numpy warns of nothing before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: non-convergence:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--format", "csv", "section", "crossings", "--mu", "0.012150585",
     "--C", "3", "--start", "0.86,1e200", "--n", "1"],
    ["section", "manifolds", "--mu", "0.012150585", "--C", "3",
     "--fixed", "0.86,1e200"],
])
def test_overflowing_section_point_is_one_line_input_error(capsys, argv):
    # vx ** 2 overflows: no energy is left for vy, as with numpy's inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, argv)
    assert (code, out) == (1, "")
    assert err == ("error: input: section point (0.86, 1e+200) outside the "
                   "energetically allowed region at C=3.0\n")


@pytest.mark.parametrize("argv, message", [
    # the root lies past the float range
    (["sturm", "refine", "--poly=-1e400,1", "--lo", "0", "--hi", "1e401"],
     "the refined root has no float image"),
    # an entry has no float image
    (["jordan", "--flavor", "numeric", "--matrix",
      '[["1e400","0"],["0","1"]]'],
     "bad matrix entry: 1e400 has no float image"),
    # the coefficients overflow
    (["charpoly", "--matrix", '{"flavor":"numeric","rows":'
      '[[[1e200,0],[0,0]],[[0,0],[1e200,0]]]}'],
     "numeric char_poly coefficients overflow the floats"),
])
def test_overflow_is_one_line_input_error(capsys, argv, message):
    code, out, err = invoke(capsys, argv)
    assert (code, out, err) == (1, "", f"error: input: {message}\n")


def test_arithmetic_error_is_one_line_input_error(capsys, monkeypatch):
    def overflowing(*args):
        raise OverflowError("integer division result too large for a float")
    monkeypatch.setattr("secular.cli.count_real_roots", overflowing)
    code, out, err = invoke(capsys, ["sturm", "count", "--poly=-2,0,1"])
    assert (code, out) == (1, "")
    assert err == ("error: input: integer division result too large for a "
                   "float\n")


@pytest.mark.parametrize("argv, message", [
    (["floquet", "--grid", "0:1:2,0:1:2", "--a", "1"],
     "--a and --q do not apply with --grid"),
    (["floquet", "--grid", "0:1:2,0:1:2", "--q", "0.1"],
     "--a and --q do not apply with --grid"),
    (["sturm", "count", "--poly=-2,0,1", "--tol", "1/100"],
     "--tol applies only to sturm refine"),
    (["sturm", "isolate", "--poly=-2,0,1", "--tol", "1/100"],
     "--tol applies only to sturm refine"),
    (["sturm", "isolate", "--poly=-2,0,1", "--lo", "0"],
     "--lo and --hi do not apply to sturm isolate"),
    (["sturm", "isolate", "--poly=-2,0,1", "--hi", "2"],
     "--lo and --hi do not apply to sturm isolate"),
])
def test_ignored_flag_is_usage_error(capsys, argv, message):
    code, out, err = invoke(capsys, argv)
    assert (code, out, err) == (1, "", f"error: input: usage: {message}\n")


def test_only_run_sets_the_exit_code():
    tree = ast.parse(Path(cli.__file__).read_text())
    handlers = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name.startswith("_cmd_")]
    assert handlers
    for node in handlers:
        assert not any(isinstance(n, ast.Return) for n in ast.walk(node)), \
            node.name
