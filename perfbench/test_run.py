"""Tests of the benchmark's own pieces.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The seed tests build the perfbench binary first (about a minute on a
4-core host when nothing is built yet).
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        s = list(range(1, 101))  # 1..100
        self.assertEqual(run.percentile(s, 0.50), 50)
        self.assertEqual(run.percentile(s, 0.90), 90)
        self.assertEqual(run.percentile(s, 0.99), 99)
        self.assertEqual(run.percentile([7], 0.99), 7)
        self.assertEqual(run.percentile(list(reversed(s)), 0.5), 50)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 0.5)

    def test_ten_samples_beyond(self):
        # p99 needs 1000 samples (10 beyond rank 990); 999 leave only 9.
        self.assertEqual(run.samples_beyond(1000, 0.99), 10)
        self.assertTrue(run.percentile_counts(1000, 0.99))
        self.assertEqual(run.samples_beyond(999, 0.99), 9)
        self.assertFalse(run.percentile_counts(999, 0.99))
        # p90 needs 100.
        self.assertTrue(run.percentile_counts(100, 0.90))
        self.assertFalse(run.percentile_counts(99, 0.90))
        self.assertFalse(run.percentile_counts(0, 0.50))

    def test_split_by_client(self):
        classes = [{"name": "small", "clients": [0, 1, 2]}, {"name": "large", "clients": [3]}]
        got = run.split_by_client([0, 3, 1, 2, 3, 0], [1, 10, 2, 3, 20, 4], classes)
        self.assertEqual(got, {"small": [1, 2, 3, 4], "large": [10, 20]})

    def test_split_rejects_unknown_and_shared_clients(self):
        classes = [{"name": "small", "clients": [0]}, {"name": "large", "clients": [1]}]
        with self.assertRaises(run.BenchError):
            run.split_by_client([0, 5], [1, 2], classes)
        shared = [{"name": "small", "clients": [0]}, {"name": "large", "clients": [0]}]
        with self.assertRaises(run.BenchError):
            run.split_by_client([0], [1], shared)

    def test_class_tail_percentiles_report_counts(self):
        raw = synthetic_record(small=2000, large=50)
        values, _ = run.end_to_end_metrics(raw, run.load_spec())
        self.assertNotIn("does not count", values["small_p99_ms"][2])
        self.assertIn("does not count", values["large_p90_ms"][2])  # 50 < 100
        self.assertEqual(values["small_p99_ms"][1], 2000)
        self.assertEqual(values["large_p90_ms"][1], 50)


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for ok in ("setup_s", "svc.small.job_latency_p50_ns", "core.plan-ns", "9lives"):
            self.assertRegex(ok, run.NAME_RE)
        for bad in ("", "bad name", "a/b", "_lead", ".lead", "x" * 65, "nsµ", "a:b"):
            self.assertIsNone(run.NAME_RE.match(bad), bad)

    def test_benchmark_json_names_and_units(self):
        spec = run.load_spec()  # raises on any bad name or unit
        names = [m["name"] for g in ("workloads", "end_to_end", "per_layer") for m in spec[g]]
        self.assertEqual(len(names), len(set(names)), "names must be used once")
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])

    def test_binary_layer_names_are_declared(self):
        # Every per-layer name the C++ sources emit is declared in BENCHMARK.json.
        declared = {m["name"] for m in run.load_spec()["per_layer"]}
        src = "".join(p.read_text() for p in (run.PKG / "src").glob("*.*pp"))
        import re
        emitted = set(re.findall(r'layer\("([A-Za-z0-9_.-]+)"', src))
        self.assertTrue(emitted)
        self.assertLessEqual(emitted, declared)


class ResultSchema(unittest.TestCase):
    NAMES = ["setup_s", "ns_per_item"]

    def good(self):
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"setup_s": {"value": 0.5, "unit": "s"},
                            "ns_per_item": {"value": 14.2, "unit": "ns"}}}

    def test_accepts_good_result(self):
        run.validate_result(self.good(), self.NAMES)

    def test_rejects_bad_results(self):
        def broken(edit):
            r = self.good()
            edit(r)
            with self.assertRaises(run.BenchError):
                run.validate_result(r, self.NAMES)

        broken(lambda r: r.update(extra=1))
        broken(lambda r: r.update(correct=1))
        broken(lambda r: r.update(attempted=0))
        broken(lambda r: r.update(failed=-1))
        broken(lambda r: r.update(attempted=2.5))
        broken(lambda r: r["metrics"].pop("setup_s"))
        broken(lambda r: r["metrics"]["setup_s"].update(value=math.nan))
        broken(lambda r: r["metrics"]["setup_s"].update(value="0.5"))
        broken(lambda r: r["metrics"]["setup_s"].update(samples=3))
        broken(lambda r: r["metrics"].update({"bad name": {"value": 1, "unit": "s"}}))

    def test_end_to_end_metrics_cover_benchmark_json(self):
        spec = run.load_spec()
        values, units = run.end_to_end_metrics(synthetic_record(200, 120), spec)
        self.assertEqual(list(values), [m["name"] for m in spec["end_to_end"]])
        result = {"correct": True, "attempted": 320, "failed": 0,
                  "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _, _) in values.items()}}
        run.validate_result(result, values.keys())
        # ns_per_item is the large-class mean over n.
        self.assertAlmostEqual(values["ns_per_item"][0], 60.0e6 / 1000)
        # The small latencies are 50000..50199 ns: mean 50099.5 ns.
        self.assertAlmostEqual(values["small_mean_ms"][0], 0.0500995)
        self.assertAlmostEqual(values["small_requests_per_s"][0], 200 / 2.0)

    def test_per_layer_metrics_fill_only_declared_idle_layers(self):
        spec = run.load_spec()
        names = [m["name"] for m in spec["per_layer"]]
        busy = [n for n in names if run.idle_reason("shuffle_ram", n) is None]
        raw = {"layers": {n: {"value": 1.5, "unit": "ns"} for n in busy}}
        values, _ = run.per_layer_metrics(raw, spec, "shuffle_ram")
        self.assertEqual(set(values), set(names))
        self.assertEqual(values["smp.leaf.fy_ns"][0], 1.5)
        self.assertEqual(values["em.levels"][0], 0.0)
        # A busy layer the binary did not emit is an error, not a 0.
        del raw["layers"]["smp.leaf.fy_ns"]
        with self.assertRaises(run.BenchError):
            run.per_layer_metrics(raw, spec, "shuffle_ram")
        # So is a value for a layer declared idle.
        raw["layers"]["smp.leaf.fy_ns"] = {"value": 1.5, "unit": "ns"}
        raw["layers"]["em.levels"] = {"value": 1.0, "unit": "count"}
        with self.assertRaises(run.BenchError):
            run.per_layer_metrics(raw, spec, "shuffle_ram")

    def test_idle_layer_declarations_match_benchmark_json(self):
        spec = run.load_spec()
        names = [m["name"] for m in spec["per_layer"]]
        self.assertEqual(set(run.IDLE_LAYERS), {w["name"] for w in spec["workloads"]})
        for workload, prefixes in run.IDLE_LAYERS.items():
            for prefix in prefixes:
                self.assertTrue(any(n.startswith(prefix) for n in names), (workload, prefix))
        # Every layer does work on at least one workload.
        for n in names:
            self.assertTrue(any(run.idle_reason(w, n) is None for w in run.IDLE_LAYERS), n)


def synthetic_record(small, large):
    """A raw perfbench record with `small` small and `large` large requests."""
    clients = [0] * small + [1] * large
    lat = [50_000 + i for i in range(small)] + [60_000_000] * large
    return {
        "setup_s": [0.5, 0.7, 0.6],
        "classes": [{"name": "small", "n": 4096, "clients": [0], "window_s": 2.0},
                    {"name": "large", "n": 1000, "clients": [1], "window_s": 8.0}],
        "request_client": clients, "request_latency_ns": lat,
        "setup_peak_rss_kib": 1024 * 100, "peak_rss_kib": 1024 * 120,
    }


class SeedPlumbing(unittest.TestCase):
    """Outputs follow the workload seed: a held-out seed differs from the
    default one, and reruns of a seed repeat exactly."""

    DEFAULT_SEED = 1
    HELD_OUT_SEED = 987654321

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def digest(self, workload, seed):
        rec = run.run_binary(self.binary, ["--workload", workload, "--seed", str(seed),
                                           "--seconds", "1", "--trace", "0",
                                           "--scale-shift", "6", "--digest"], timeout=120)
        self.assertEqual(rec["wrong"], 0)
        return rec["digest"]

    def test_every_workload(self):
        for w in ("shuffle_ram", "service_mixed", "shuffle_out_of_core", "shuffle_distributed"):
            with self.subTest(workload=w):
                base = self.digest(w, self.DEFAULT_SEED)
                held = self.digest(w, self.HELD_OUT_SEED)
                self.assertNotEqual(base, held)
                self.assertEqual(held, self.digest(w, self.HELD_OUT_SEED))

    def test_plans_json_matches_workloads(self):
        plans = json.loads((run.PKG / "plans.json").read_text())
        self.assertEqual(set(plans), {w["name"] for w in run.load_spec()["workloads"]})

    def test_bare_directory_fails_without_result(self):
        # Without src/, the build fails: exit code 2 and no result line.
        import shutil
        import tempfile
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_build") as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.PKG, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                   "shuffle_ram", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                                  timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
