"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Not collected by the project's pytest run (the file name does not match
test_*.py): it spawns benchmark runs and takes about a minute and a half.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Recorder  # noqa: E402

import brsc.cli  # noqa: E402,F401  (so its imported names get wrapped too)
from brsc import lattice, t_operator  # noqa: E402


def _units(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class ResultShape(unittest.TestCase):
    """Whole runs: metric names, units, correctness and digests."""

    def test_workload_names_agree(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(sorted(names), sorted(run.WORKLOADS))
        self.assertEqual(sorted(names), sorted(workloads.WORKLOADS))

    def _bench(self, workload, trace):
        result, detail = run.bench(workload, seed=3, seconds=0, trace=trace)
        self.assertTrue(result["correct"], detail["failures"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(len(detail["digest"]), 1, "repetitions disagree on the verdicts")
        return result, detail

    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in ("check-small", "search"):
            for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
                result, _ = self._bench(workload, trace)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, _units(kind))
                for value in result["metrics"].values():
                    self.assertIsInstance(value["value"], (int, float))

    def test_traced_and_untraced_runs_agree(self):
        _, plain = self._bench("search", False)
        _, traced = self._bench("search", True)
        self.assertEqual(plain["digest"], traced["digest"])

    def test_bare_directory_fails_without_a_result(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class InjectedFaults(unittest.TestCase):
    """A wrong verdict must be counted as a failed operation."""

    def _results(self, run_fn, inputs):
        rec = Recorder()
        run_fn(inputs, rec)
        return rec.results

    def test_wrong_property_verdict(self):
        items = workloads.small_setup(5)[:12]
        results = self._results(workloads.small_run, items)
        self.assertEqual(workloads.small_check(5, items, results), {})
        got = results["small:5"][1]
        got["tbrsc"] = not got["tbrsc"]
        self.assertEqual(set(workloads.small_check(5, items, results)), {"small:5"})

    def test_wrong_closure(self):
        items = [it for it in workloads.wide_setup(5) if it[0] == "desargues"]
        results = self._results(workloads._run_checks, items)
        self.assertEqual(workloads.wide_check(5, items, results), {})
        got = results["desargues"]
        got["closure"][0] ^= 1 << 9
        self.assertIn("desargues", workloads.wide_check(5, items, results))

    def test_wrong_search_verdicts(self):
        inputs = [op for op in workloads.search_setup(5) if op[0] in ("ext:sme", "shells:0")]
        results = self._results(workloads.search_run, inputs)
        self.assertEqual(workloads.search_check(5, inputs, results), {})
        results["ext:sme"].extensions.pop()
        shellable = next(i for i, s in enumerate(results["shells:0"]) if s is not None)
        results["shells:0"][shellable] = None
        self.assertEqual(set(workloads.search_check(5, inputs, results)), {"ext:sme", "shells:0"})


class Calibration(unittest.TestCase):
    def test_latencies_are_cpu_time_without_the_samples(self):
        def spin(seconds):  # CPU time, samples included
            end = time.thread_time() + seconds
            while time.thread_time() < end:
                pass

        rec = Recorder()
        with rec.calibrating():
            rec.op("spin", spin, 0.45)
            rec.op("sleep", time.sleep, 0.25)
        (start, end, cpu), (_, _, asleep) = rec.intervals
        inside = [t for t, _ in rec.samples if start < t < end]
        self.assertGreaterEqual(len(inside), 3)
        self.assertAlmostEqual(cpu + rec.cal_s * len(inside) / len(rec.samples), 0.45, delta=0.01)
        self.assertLess(cpu, 0.45)
        self.assertLess(asleep, 0.05)
        self.assertEqual(signal.getsignal(signal.SIGALRM), signal.SIG_DFL)

    def test_scale_takes_the_samples_near_each_operation(self):
        samples = [(0.0, 1e-3)] + [(1 + i / 10, 2e-3) for i in range(5)] + [(30.0, 4e-3)]
        near, far, wide = calibrate.scale([(1.05, 1.06), (29.0, 29.5), (-1.0, 1.45)], samples)
        self.assertEqual(near, calibrate.REF_NOMINAL_S / 2e-3)
        # the five nearest samples, whatever their distance
        self.assertEqual(far, calibrate.REF_NOMINAL_S / 2e-3)
        # six samples inside: those alone
        self.assertEqual(wide, calibrate.REF_NOMINAL_S / 2e-3)
        self.assertEqual(calibrate.scale([(-1.0, 0.5)], samples), [calibrate.REF_NOMINAL_S / 2e-3])
        slow = [(t, 2 * d) for t, d in samples]
        self.assertEqual(calibrate.scale([(1.05, 1.06)], slow), [near / 2])


class Tracing(unittest.TestCase):
    def setUp(self):
        self.tracer = spans.Tracer(workloads.REFUSALS)
        self.tracer.install(extra_namespaces=(workloads,))
        self.addCleanup(self.tracer.uninstall)

    def test_every_namespace_is_wrapped(self):
        original = self.tracer.functions["lattice.flats"]
        for module in ("lattice", "t_operator", "matroid", "operators", "reproduce", "cli"):
            ns = vars(sys.modules[f"brsc.{module}"])
            self.assertIsNot(ns["flats"], original, module)
            self.assertIs(ns["flats"].__wrapped__, original, module)
        self.tracer.uninstall()
        self.assertIs(lattice.flats, original)
        self.assertIs(sys.modules["brsc.cli"].flats, original)

    def test_wrapper_calls_match_cache_lookups(self):
        items = workloads.small_setup(7)[:40]
        rec = Recorder(self.tracer)
        workloads._run_checks(items, rec)
        t_operator.enumerate_mngu(5)
        report = self.tracer.report()
        for name, info in report["caches"].items():
            self.assertEqual(info["wrapper_calls"], info["hits"] + info["misses"], name)
            self.assertGreater(info["wrapper_calls"], 0, name)

    def test_self_time_excludes_children(self):
        t_operator.codimension(workloads.catalog.named("desargues"))
        fns = self.tracer.report()["functions"]
        jt = fns["t_operator.jt_complex"]
        self.assertLess(jt["self_s"], jt["total_s"])
        self.assertGreater(fns["t_operator.cl_T"]["calls"], 0)


if __name__ == "__main__":
    unittest.main()
