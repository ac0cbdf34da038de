"""Self-tests of the benchmark: the answer check, tiny runs of every
workload, traced against untraced answers, and the metric names against
``BENCHMARK.json``.

Run from the repository root: ``python3 benchmarks/selftest.py``.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.pin_blas_threads()
run.import_library()

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def moments(atoms, dim, degree):
    """Every moment up to ``degree`` of ``atoms``, computed by brute force."""
    indices = [
        alpha
        for alpha in np.ndindex(*([degree + 1] * dim))
        if sum(alpha) <= degree
    ]
    values = [
        sum(w * np.prod([x**e for x, e in zip(p, alpha)]) for p, w in atoms)
        for alpha in indices
    ]
    return np.array(indices), np.array(values, dtype=float)


class CheckTest(unittest.TestCase):
    TRUE_1D = [((0.5,), 0.75), ((1.25,), 1.5), ((2.0,), 0.5)]
    # On-curve dyadic atoms sharing x1 = 1.25: sorting by coordinate pairs
    # them wrongly once x1 carries round-off; nearest neighbour does not.
    TRUE_2D = [((1.25, 1.5625), 0.5), ((1.25, 3.0), 0.25), ((0.5, 0.25), 1.0)]

    def verdict(self, truth, got, dim):
        indices, targets = moments(truth, dim, 6)
        residual = check.moment_residual(got, indices, targets)
        return residual <= 1e-8 and check.match_atoms(truth, got)[0]

    def test_accepts_true_measure(self):
        self.assertTrue(self.verdict(self.TRUE_1D, self.TRUE_1D, 1))
        self.assertTrue(self.verdict(self.TRUE_2D, self.TRUE_2D, 2))

    def test_accepts_reordered_atoms_with_round_off(self):
        got = [
            ((1.25 + 2e-16, 3.0), 0.25),
            ((0.5, 0.25), 1.0),
            ((1.25 - 2e-16, 1.5625), 0.5),
        ]
        self.assertTrue(self.verdict(self.TRUE_2D, got, 2))

    def test_rejects_dropped_atom(self):
        for truth, dim in ((self.TRUE_1D, 1), (self.TRUE_2D, 2)):
            self.assertFalse(self.verdict(truth, truth[:-1], dim))

    def test_rejects_perturbed_weight(self):
        for truth, dim in ((self.TRUE_1D, 1), (self.TRUE_2D, 2)):
            (point, weight), *rest = truth
            self.assertFalse(self.verdict(truth, [(point, weight + 1e-6), *rest], dim))

    def test_skips_moments_beyond_double_range(self):
        indices = np.array([[0], [1], [2]])
        targets = np.array([1.0, 2.0, np.inf])
        self.assertEqual(check.moment_residual([((2.0,), 1.0)], indices, targets), 0.0)


class SpeedTest(unittest.TestCase):
    def test_scale_is_reference_over_median_sample(self):
        meter = speed.Speedometer()
        meter.samples = [0.002, 0.004, 0.001]
        self.assertAlmostEqual(meter.scale(), speed.REFERENCE_S / 0.002)
        self.assertEqual(meter.samples, [])


class WorkloadTest(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        self.assertEqual(set(run.WORKLOADS_ORDER), set(workloads.WORKLOADS))
        self.assertEqual(
            [w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS_ORDER)
        )
        for w in SPEC["workloads"]:
            self.assertEqual(w["why"], workloads.WORKLOADS[w["name"]].why)

    def test_every_workload_completes_tiny(self):
        e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for name in run.WORKLOADS_ORDER:
            with self.subTest(workload=name):
                result = run.run(name, seed=1, seconds=0, trace=False, limit=2)
                self.assertEqual(result.attempted, 2)
                self.assertEqual(result.failed, 0)
                self.assertEqual(result.units, e2e)

    def test_traced_answers_equal_untraced(self):
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for name in run.WORKLOADS_ORDER:
            with self.subTest(workload=name):
                plain = run.run(name, seed=2, seconds=0, trace=False, limit=2)
                traced = run.run(name, seed=2, seconds=0, trace=True, limit=2)
                self.assertEqual(traced.answers, plain.answers)
                self.assertEqual(traced.failed, 0)
                self.assertEqual(traced.units, per_layer)

    def test_tracer_restores_every_binding(self):
        import momentkit
        from momentkit import matrices, multivariate
        from momentkit.polynomials import Polynomial

        before = (momentkit.moment_matrix, multivariate.moment_matrix, Polynomial.__rmul__)
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(multivariate.moment_matrix, before[1])
        self.assertIs(multivariate.moment_matrix, matrices.moment_matrix)
        tracer.uninstall()
        after = (momentkit.moment_matrix, multivariate.moment_matrix, Polynomial.__rmul__)
        self.assertEqual(before, after)

    def test_refuses_to_run_without_sources(self):
        bare = run.ROOT / ".bench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "benchmarks").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "benchmarks")
        try:
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "solve-md"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    unittest.main()
