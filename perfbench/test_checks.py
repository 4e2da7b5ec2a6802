"""The checks accept real outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py     (or python3 perfbench/test_checks.py)

Each test runs one small op through the CLI, confirms that its check
passes, then corrupts one figure of the output and requires the check to
report it.  The homoclinic op is cut to 10 seeds to keep this quick; the
check is the same one the benchmark runs on the 40-seed op.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

cli = run.import_cli()
import workloads  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


def outputs_of(op: Op) -> list[str]:
    rec = run.run_op(cli, op)
    assert not any(rec.codes), rec.errors
    return rec.outputs


def edit_json(text: str, change) -> str:
    d = json.loads(text)
    change(d)
    return json.dumps(d)


class CheckCase(unittest.TestCase):
    name = ""

    def assert_rejected(self, ref, outputs, what):
        w = WORKLOADS[self.name]
        try:
            problems = w.check(ref, outputs)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            problems = [repr(e)]
        self.assertTrue(problems, f"{what} was not reported")


class TestHomoclinic(CheckCase):
    name = "homoclinic"

    @classmethod
    def setUpClass(cls):
        (op,) = WORKLOADS[cls.name].build(3, Path("."))
        seeds = 10
        argv = list(op.calls[0])
        argv[argv.index("--seeds") + 1] = str(seeds)
        cls.op = Op(op.key, (tuple(argv),), dict(op.info, seeds=seeds))
        cls.ref = WORKLOADS[cls.name].reference(cls.op)
        cls.outputs = outputs_of(cls.op)

    def test_real_output_passes(self):
        self.assertEqual(WORKLOADS[self.name].check(self.ref, self.outputs), [])

    def test_perturbed_segment_point(self):
        def change(d):
            i = d["homoclinic"]["unstable_segment"]
            d["unstable_polyline"][i][0] += 1e-6
        self.assert_rejected(self.ref, [edit_json(self.outputs[0], change)],
                             "a moved point of the crossing segment")

    def test_stretched_stable_branch(self):
        def change(d):
            for p in d["stable_polyline"]:
                p[1] *= 1.0 + 1e-5
        self.assert_rejected(self.ref, [edit_json(self.outputs[0], change)],
                             "stable points that are not map images")

    def test_not_found(self):
        def change(d):
            d["homoclinic"]["found"] = False
        self.assert_rejected(self.ref, [edit_json(self.outputs[0], change)],
                             "found = false")


class TestFloquetScan(CheckCase):
    name = "floquet_scan"

    @classmethod
    def setUpClass(cls):
        (op,) = WORKLOADS[cls.name].build(1, Path("."))
        cls.ref = WORKLOADS[cls.name].reference(op)
        cls.outputs = outputs_of(op)

    def test_real_output_passes(self):
        self.assertEqual(WORKLOADS[self.name].check(self.ref, self.outputs), [])

    def edit_row(self, k, column, value):
        lines = self.outputs[0].splitlines()
        header = lines[1].split(",")
        row = lines[2 + k].split(",")
        row[header.index(column)] = value(row[header.index(column)])
        lines[2 + k] = ",".join(row)
        return ["\n".join(lines) + "\n"]

    def test_shifted_smax(self):
        out = self.edit_row(40, "smax", lambda s: repr(float(s) * (1 + 1e-4)))
        self.assert_rejected(self.ref, out, "a shifted smax")

    def test_flipped_verdict(self):
        out = self.edit_row(0, "verdict", lambda v: "unstable_exponential")
        self.assert_rejected(self.ref, out, "a flipped verdict")

    def test_missing_cell(self):
        lines = self.outputs[0].splitlines()
        self.assert_rejected(self.ref, ["\n".join(lines[:-1]) + "\n"],
                             "a dropped cell")


class TestExactCertify(CheckCase):
    name = "exact_certify"

    @classmethod
    def setUpClass(cls):
        workdir = cls.enterClassContext(run.work_dir())
        ops = {op.key: op for op in WORKLOADS[cls.name].build(5, workdir)}
        # one matrix of each dimension 2-6; the 6x6 one is planted
        cls.op = ops["matrices-00"]
        cls.ref = WORKLOADS[cls.name].reference(cls.op)
        cls.outputs = outputs_of(cls.op)

    def test_real_outputs_pass(self):
        self.assertEqual(WORKLOADS[self.name].check(self.ref, self.outputs), [])
        self.assertLess(self.ref[-1]["distinct"], 6)

    def corrupt(self, command, change, what):
        """Corrupt one command's output, on each matrix in turn."""
        k = workloads.EXACT_COMMANDS.index(command)
        for m in range(len(self.ref)):
            outs = list(self.outputs)
            outs[4 * m + k] = edit_json(outs[4 * m + k], change)
            self.assert_rejected(self.ref, outs, f"{what} on matrix {m}")

    def test_changed_charpoly_coefficient(self):
        def change(d):
            c = d["char_poly"]["coeffs"]
            c[1] = f"{int(c[1].split('/')[0]) + 1}/{c[1].split('/')[1]}"
        self.corrupt("charpoly", change, "a changed char-poly coefficient")

    def test_swapped_inertia(self):
        def change(d):
            i = d["inertia"]
            i["pos"], i["neg"] = i["neg"] + 1, i["pos"]
        self.corrupt("inertia", change, "a wrong inertia")

    def test_wrong_hermite_count(self):
        def change(d):
            d["distinct_real"] -= 1
        self.corrupt("hermite-count", change, "a wrong real-root count")

    def test_shifted_interval(self):
        def change(d):
            d["outer_intervals"][0] = ["100/1", "101/1"]
        self.corrupt("interlace", change, "an interval holding no eigenvalue")

    def test_failed_interlacing(self):
        def change(d):
            d["passed"] = False
        self.corrupt("interlace", change, "passed = false")

    def test_missing_output(self):
        self.assert_rejected(self.ref, self.outputs[:-1], "a missing output")


class TestLyapunovOrbit(CheckCase):
    name = "lyapunov_orbit"

    @classmethod
    def setUpClass(cls):
        cls.op = WORKLOADS[cls.name].build(2, Path("."))[0]
        cls.ref = WORKLOADS[cls.name].reference(cls.op)
        cls.outputs = outputs_of(cls.op)

    def test_real_output_passes(self):
        self.assertEqual(WORKLOADS[self.name].check(self.ref, self.outputs), [])

    def corrupt(self, index, change, what):
        outs = list(self.outputs)
        outs[index] = edit_json(outs[index], change)
        self.assert_rejected(self.ref, outs, what)

    def test_moved_l1(self):
        def change(d):
            d["points"][0]["position"][0] += 1e-10
        self.corrupt(0, change, "a moved L1")

    def test_orbit_that_does_not_close(self):
        def change(d):
            d["x0"][3] *= 1.0 + 1e-6
        self.corrupt(2, change, "a perturbed initial velocity")

    def test_wrong_jacobi_constant(self):
        def change(d):
            d["C"] += 1e-9
        self.corrupt(1, change, "a wrong C")

    def test_multiplier_product(self):
        def change(d):
            d["multipliers"][-1][0] *= 1.001
        self.corrupt(2, change, "multipliers whose product is not 1")

    def test_invariant_flags(self):
        def change(d):
            d["invariant_flags"] = ["nontrivial pair not reciprocal"]
        self.corrupt(1, change, "a raised invariant flag")

    def test_missing_orbit(self):
        self.assert_rejected(self.ref, self.outputs[:-1], "a missing orbit")


class TestBenchmarkFile(unittest.TestCase):
    def test_per_layer_names_match_the_tracer(self):
        spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(listed, tracing.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
