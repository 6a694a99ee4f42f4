"""Self-tests of the benchmark: reduction helpers, the metric-name grammar,
and the engagement checks on a tiny configuration of every workload.

    python3 perfbench/run.py --self-test
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import benchlib  # noqa: E402
import run  # noqa: E402


class QuantileTest(unittest.TestCase):
    def test_endpoints_and_interpolation(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(benchlib.quantile(values, 0.0), 1.0)
        self.assertEqual(benchlib.quantile(values, 1.0), 5.0)
        self.assertEqual(benchlib.quantile(values, 0.5), 3.0)
        self.assertAlmostEqual(benchlib.quantile(values, 0.1), 1.4)
        self.assertAlmostEqual(benchlib.quantile([2.0, 4.0], 0.25), 2.5)

    def test_single_sample(self):
        self.assertEqual(benchlib.quantile([7.0], 0.1), 7.0)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.quantile([], 0.5)
        with self.assertRaises(benchlib.BenchError):
            benchlib.quantile([1.0], 1.5)

    def test_quiet_is_the_low_quantile(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(benchlib.quiet(values),
                               benchlib.quantile(values, benchlib.QUANTILE))
        self.assertLess(benchlib.quiet(values), statistics.median(values))

    def test_relative_iqr_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 10.2, 9.8, 10.1, 10.9, 11.5]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.relative_iqr(values), (q3 - q1) / med)
        with self.assertRaises(benchlib.BenchError):
            benchlib.relative_iqr([1.0])


def raw_record(**override):
    nominal = benchlib.PROBE_NOMINAL_NS
    fast = {"events_per_unit": 1000, "setup_ns": [1e4] * 10,
            "unit_ns": [2e6, 4e6, 2.2e6, 3e6, 2.1e6, 5e6, 2.4e6, 2.05e6,
                        2.6e6, 2.3e6],
            "probe_ns": [nominal] * 10}
    # A process on a host running at half speed: the probe doubles too.
    slow = {"events_per_unit": 1000, "setup_ns": [2e4] * 10,
            "unit_ns": [x * 2 for x in fast["unit_ns"]],
            "probe_ns": [2 * nominal] * 10}
    raw = {
        "workload": "agree_flat", "ops_per_unit": 2, "procs": [slow, fast],
        "peak_rss_kb": 2048, "judged_ops": 8,
        "passed_ops": 8, "sent_per_op": 100.0, "bytes_per_op": 3200.0,
        "latency_ns": [float(i) * 1e3 for i in range(1, 1101)],
        "recovery_ns": [3e6, 1e6, 2e6], "sim_units": 3, "attempted": 28,
        "failed": 0,
    }
    raw.update(override)
    return raw


class AggregationTest(unittest.TestCase):
    def test_end_to_end_metrics(self):
        metrics, notes = benchlib.end_to_end(raw_record())
        self.assertEqual(set(metrics), {m[0] for m in benchlib.END_TO_END})
        # Pooled over both processes and corrected by the probe's slowdown.
        raw = raw_record()
        factor = benchlib.quiet([benchlib.PROBE_NOMINAL_NS] * 10 +
                                [2 * benchlib.PROBE_NOMINAL_NS] * 10) / \
            benchlib.PROBE_NOMINAL_NS
        self.assertAlmostEqual(factor, 1.0)
        quiet_ns = benchlib.quiet(benchlib.pooled(raw["procs"], "unit_ns"))
        self.assertAlmostEqual(metrics["wall_ms_per_op"]["value"],
                               quiet_ns * 1e-6 / 2)
        self.assertAlmostEqual(metrics["events_per_s"]["value"],
                               1000 / (quiet_ns * 1e-9))
        self.assertAlmostEqual(metrics["setup_s"]["value"], 1e-5)
        self.assertAlmostEqual(notes["speed_factor"], 1.0)
        self.assertEqual(metrics["ok_op_frac"]["value"], 1.0)
        self.assertAlmostEqual(metrics["recovery_ms"]["value"], 2.8)
        self.assertAlmostEqual(metrics["peak_rss_mb"]["value"], 2.0)
        self.assertEqual(metrics["wall_ms_per_op"]["unit"], "ms")
        self.assertEqual(notes["reps"], 20)
        self.assertEqual(notes["procs"], 2)
        self.assertGreater(notes["interference_ratio"], 1.0)

    def test_speed_probe_divides_out_a_slow_host(self):
        quiet_metrics, _ = benchlib.end_to_end(raw_record())
        slow = raw_record()
        for proc in slow["procs"]:
            proc["unit_ns"] = [x * 1.5 for x in proc["unit_ns"]]
            proc["probe_ns"] = [x * 1.5 for x in proc["probe_ns"]]
        slow_metrics, notes = benchlib.end_to_end(slow)
        self.assertAlmostEqual(notes["speed_factor"], 1.5)
        self.assertAlmostEqual(slow_metrics["wall_ms_per_op"]["value"],
                               quiet_metrics["wall_ms_per_op"]["value"])

    def test_p99_needs_ten_samples_beyond_it(self):
        with self.assertRaises(benchlib.BenchError):
            benchlib.end_to_end(raw_record(latency_ns=[1.0] * 999))
        benchlib.end_to_end(raw_record(latency_ns=[1.0] * 1000))

    def test_failed_ops_lower_ok_frac(self):
        metrics, _ = benchlib.end_to_end(raw_record(passed_ops=6))
        self.assertAlmostEqual(metrics["ok_op_frac"]["value"], 0.75)


class GrammarTest(unittest.TestCase):
    def test_every_metric_name_and_unit_is_valid_and_unique(self):
        names = [m[0] for m in benchlib.END_TO_END + benchlib.PER_LAYER]
        self.assertEqual(len(names), len(set(names)))
        for name, unit, better in benchlib.END_TO_END + benchlib.PER_LAYER:
            self.assertTrue(benchlib.valid_name(name), name)
            self.assertTrue(benchlib.valid_unit(unit), unit)
            self.assertIn(better, ("higher", "lower"))

    def test_grammar_rejects_bad_names(self):
        for bad in ("", "_lead", ".lead", "has space", "kind'", "a" * 65,
                    "init'_per_op"):
            self.assertFalse(benchlib.valid_name(bad), bad)
        self.assertFalse(benchlib.valid_unit("seconds per op!"))
        self.assertTrue(benchlib.valid_name("net.kind.tps_general_per_op"))

    def test_benchmark_json_names_the_same_metrics(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]),
                         benchlib.WORKLOADS)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            list(benchlib.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            list(benchlib.PER_LAYER))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


def layers(**override):
    values = {name: 1.0 for name, _, _ in benchlib.PER_LAYER}
    values.update(override)
    return values


class EngagementRuleTest(unittest.TestCase):
    def test_each_workload_flags_its_missing_layer(self):
        cases = {
            "agree_flat": {"core.round_spans_per_op": 0.0},
            "log_hmac_chaos": {"auth.rejected_per_op": 0.0},
            "agree_chaos_s4": {"duty.migrations_per_op": 0.0},
            "sweep_mixed_t4": {"net.topology_hops_per_op": 0.0},
        }
        serial = {"shard.windows_per_op": 0.0, "auth.rejected_per_op": 0.0}
        for workload, missing in cases.items():
            base = serial if workload == "agree_flat" else {}
            self.assertEqual(benchlib.engagement(workload, layers(**base)), [],
                             workload)
            failures = benchlib.engagement(workload, layers(**base, **missing))
            self.assertEqual(len(failures), 1, workload)


class TinyConfigurationTest(unittest.TestCase):
    """Runs every workload's tiny configuration through the real binary."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_traced_runs_engage_their_layers(self):
        for workload in benchlib.WORKLOADS:
            raw, code = run.run_raw(self.binary, workload, 1, 2, True, tiny=True)
            self.assertEqual(code, 0, raw.get("errors"))
            result, notes = run.reduce(raw, code, True)
            self.assertTrue(result["correct"], notes)
            self.assertEqual(set(result["metrics"]),
                             {m[0] for m in benchlib.PER_LAYER})
            self.assertEqual(result["metrics"]["pool.live_after_run"]["value"], 0)

    def test_untraced_runs_judge_every_op(self):
        for workload in benchlib.WORKLOADS:
            raw, code = run.run_measured(self.binary, workload, 2, 2, tiny=True)
            self.assertEqual(code, 0, raw.get("errors"))
            self.assertEqual(raw.get("errors"), [])
            self.assertGreater(raw["judged_ops"], 0)
            self.assertEqual(raw["passed_ops"], raw["judged_ops"], raw["failures"])
            self.assertEqual(raw["failed"], 0)
            self.assertEqual(raw["pool_live_after_run"], 0)
            self.assertEqual(len(raw["procs"]), benchlib.TIMING_PROCS)
            if workload == "agree_chaos_s4":
                self.assertTrue(raw["twin_digest_match"])


if __name__ == "__main__":
    unittest.main()
