"""Tests of the benchmark itself: generator, checker, tracer, percentiles.

Run from the root of a source checkout:

    python3 bench/selftest.py
"""

from __future__ import annotations

import csv
import importlib
import io
import random
import unittest

import run  # pins the numeric thread counts before numpy loads
import checker
import workloads
from tracing import SPANS, Tracer

cli = run.import_cli()


def execute(op):
    """(exit code, stdout) of one op, run in-process."""
    out = io.StringIO()
    with run.contextlib.redirect_stdout(out), run.contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def small_ops(workers: int) -> list:
    rng = random.Random(7)
    return [
        workloads.region(rng, "mixed", 2, 21, 3, workers, "csv"),
        workloads.region(rng, "mixed", 8, 11, 2, workers, "json"),
        workloads.fidelity(rng, 5, kappa=False, direct=False, fmt="csv"),
        workloads.figure(7, 5, "csv", workers),
    ]


def traced(ops) -> tuple:
    """A fresh tracer after running ``ops`` under it, and the traced wall."""
    tracer = Tracer()
    runner = run.Runner(cli)
    wall = 0.0
    for op in ops:
        with tracer.installed():
            wall += runner.run(op)[0]
    assert runner.failed == 0, runner.problems
    return tracer, wall


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.generate(name, 3), workloads.generate(name, 3))

    def test_other_seed_other_inputs_same_work(self):
        for name in workloads.WORKLOADS:
            a, b = workloads.generate(name, 3), workloads.generate(name, 4)
            self.assertNotEqual([op.argv for op in a], [op.argv for op in b])
            self.assertEqual(sorted(op.cls for op in a), sorted(op.cls for op in b))


class CheckerTest(unittest.TestCase):
    def setUp(self):
        rng = random.Random(11)
        self.region = workloads.region(rng, "bipartite", 2, 11, 5, 1, "csv")
        self.mixed = workloads.region(rng, "mixed", 2, 11, 3, 1, "csv")
        self.sweep = workloads.sweep(rng, "eta_t", 40, "json", db=True)

    def test_seed_output_passes(self):
        for op in (self.region, self.mixed, self.sweep, *small_ops(2)):
            code, text = execute(op)
            self.assertEqual(checker.check(op, code, text), [], op.argv)

    @staticmethod
    def _edit_csv(text: str, column: str, row: int, delta: float) -> str:
        lines = list(csv.reader(io.StringIO(text)))
        j = lines[0].index(column)
        lines[row + 1][j] = repr(float(lines[row + 1][j]) + delta)
        return "".join(",".join(line) + "\n" for line in lines)

    def test_flags_perturbed_fidelity(self):
        for op, column in ((self.region, "f_quantum"), (self.region, "f_classical"),
                           (self.mixed, "f_quantum")):
            code, text = execute(op)
            bad = self._edit_csv(text, column, 4, -1e-2)
            self.assertNotEqual(checker.check(op, code, bad), [], column)

    def test_flags_dropped_row(self):
        code, text = execute(self.region)
        lines = text.splitlines(keepends=True)
        self.assertNotEqual(checker.check(self.region, code, "".join(lines[:-1])), [])

    def test_flags_nonzero_exit(self):
        code, text = execute(self.region)
        self.assertEqual(checker.check(self.region, 2, text), ["exit code 2"])


class TracerTest(unittest.TestCase):
    def lookups(self):
        return {(module, attr): getattr(importlib.import_module(module), attr)
                for _, names, _ in SPANS for module, attr in names}

    def test_restores_originals(self):
        before = self.lookups()
        with Tracer().installed():
            during = self.lookups()
        after = self.lookups()
        self.assertTrue(all(during[k] is not before[k] for k in before))
        self.assertTrue(all(after[k] is before[k] for k in before))

    def test_missing_name_is_absent(self):
        spans = SPANS + (("cli.gone", [("cpfkit.cli", "_no_such_function")], None),)
        tracer = Tracer(spans)
        with tracer.installed():
            pass
        self.assertEqual(tracer.absent, ["cpfkit.cli._no_such_function"])
        self.assertFalse(hasattr(cli, "_no_such_function"))

    def test_self_times_fit_in_wall_time(self):
        for workers in (1, 2):
            tracer, wall = traced(small_ops(workers))
            self_total = sum(stat.self_s for stat in tracer.stats.values())
            self.assertGreater(self_total, 0.0)
            self.assertLessEqual(self_total, wall)

    def test_counts_repeat_exactly(self):
        counts = {}
        for workers in (1, 2):
            first = traced(small_ops(workers))[0].counts()
            second = traced(small_ops(workers))[0].counts()
            self.assertEqual(first, second)
            self.assertGreater(first["gaussian.fidelity_from_arrays.calls"], 0)
            counts[workers] = first
        # row threads change where the work runs, not how much there is
        self.assertEqual(counts[1], counts[2])


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(run.percentile(range(50), 0.9), (None, 5))
        value, beyond = run.percentile(range(101), 0.9)
        self.assertEqual((value, beyond), (90.0, 10))
        self.assertEqual(run.percentile(range(101), 0.5), (50.0, 50))


if __name__ == "__main__":
    unittest.main()
