"""Fast tests of the benchmark's result assembly and declarations.

Run from the repository root: python3 -m unittest perfbench/test_run.py
(the Rust side is tested with `cargo test --manifest-path perfbench/Cargo.toml`).
"""

import copy
import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(run.BENCHMARK_JSON) as f:
        return json.load(f)


def load_reference():
    with open(run.REFERENCE_JSON) as f:
        return json.load(f)


def fake_e2e(workload, passes=3):
    """Set-up and measure output whose passes reproduce the reference, on a
    host running at the reference speed."""
    ref = load_reference()["workloads"][workload]
    record = {"wall_s": 1.0, "cpu_s": 2.0, "digest": ref["digest"], "sink_bytes": 10,
              "counts": dict(ref["pass_counts"])}
    speed = run.REFERENCE_CALIBRATION_S
    setup = {"setup_s": [0.5, 0.4, 0.6], "calib_s": [speed] * 4}
    if workload == "fig8_warm_cache":
        cold = load_reference()["workloads"]["fig8_cold"]
        setup["fill"] = {"digest": cold["digest"], "counts": dict(cold["pass_counts"])}
    again = {"setup_s": [0.5], "calib_s": [speed] * 2}
    measured = {"passes": [copy.deepcopy(record) for _ in range(passes)],
                "calib_s": [speed] * (passes + 1), "peak_rss_mb": 50.0}
    return [setup, again], [measured], ref


def fake_trace(workload, iterations=2):
    ref = load_reference()["workloads"][workload]
    declared = [m["name"] for m in load_benchmark()["per_layer"]]
    layers = {name: 0.5 for name in declared if name != "trace.overhead_ratio"}
    layers.update(ref["layer_counts"])
    it = {"untraced_wall_s": 1.0, "traced_wall_s": 1.1, "digest": ref["digest"],
          "checked": 10, "failures": [], "layers": layers}
    return {"iterations": [copy.deepcopy(it) for _ in range(iterations)]}, ref


class Declarations(unittest.TestCase):
    def test_every_metric_and_workload_name_is_well_formed(self):
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))

    def test_the_benchmark_file_follows_its_contract(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]), run.WORKLOADS)
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in bench["end_to_end"])}])
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_the_reference_covers_every_workload(self):
        ref = load_reference()
        self.assertEqual(ref["seed"], run.DEFAULT_SEED)
        self.assertEqual(tuple(ref["workloads"]), run.WORKLOADS)
        for entry in ref["workloads"].values():
            self.assertEqual(set(entry["layer_counts"]), set(run.LAYER_COUNTS))
            self.assertTrue(set(run.PASS_COUNTS) <= set(entry["pass_counts"]))


class Assembly(unittest.TestCase):
    def test_every_workload_emits_every_declared_metric(self):
        bench = load_benchmark()
        for workload in run.WORKLOADS:
            setups, measures, ref = fake_e2e(workload)
            result = run.assemble_e2e(workload, run.DEFAULT_SEED, setups, measures, ref)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in bench["end_to_end"]])
            self.assertTrue(result["correct"], result)
            measured, ref = fake_trace(workload)
            result = run.assemble_trace(workload, run.DEFAULT_SEED, measured, ref)
            self.assertEqual(list(result["metrics"]), [m["name"] for m in bench["per_layer"]])
            self.assertTrue(result["correct"], result)
            self.assertAlmostEqual(result["metrics"]["trace.overhead_ratio"]["value"], 1.1)

    def test_a_corrupted_reference_digest_is_caught_and_counted(self):
        setups, measures, ref = fake_e2e("fig8_cold", passes=4)
        bad = dict(ref, digest="0" * 16)
        result = run.assemble_e2e("fig8_cold", run.DEFAULT_SEED, setups, measures, bad)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 4)
        self.assertAlmostEqual(result["metrics"]["success_rate"]["value"],
                               1 - 4 / result["attempted"])
        measured, ref = fake_trace("fig8_cold", iterations=3)
        result = run.assemble_trace("fig8_cold", run.DEFAULT_SEED, measured,
                                    dict(ref, digest="0" * 16))
        self.assertEqual(result["failed"], 3)

    def test_counter_drift_and_job_failures_count_as_failures(self):
        setups, measures, ref = fake_e2e("a5_policy_fresh_cache")
        measures[0]["passes"][1]["counts"]["compiles"] += 1
        measures[0]["passes"][2]["counts"]["job_errors"] = 2
        result = run.assemble_e2e("a5_policy_fresh_cache", 7, setups, measures, None)
        # Pass 1 drifts from pass 0; pass 2 has two failed jobs and drifts too.
        self.assertEqual(result["failed"], 4)
        measured, ref = fake_trace("a5_policy_fresh_cache")
        measured["iterations"][1]["layers"]["cache.stage_files"] += 1
        measured["iterations"][1]["failures"].append("job x: replay outcome differs")
        result = run.assemble_trace("a5_policy_fresh_cache", 7, measured, None)
        self.assertEqual(result["failed"], 2)

    def test_a_warm_pass_must_repeat_the_cold_fill(self):
        setups, measures, _ = fake_e2e("fig8_warm_cache")
        setups[0]["fill"]["digest"] = "f" * 16
        result = run.assemble_e2e("fig8_warm_cache", 7, setups, measures, None)
        self.assertEqual(result["failed"], len(measures[0]["passes"]))

    def test_a_missing_declared_metric_is_an_error(self):
        measured, ref = fake_trace("fig8_cold")
        for it in measured["iterations"]:
            del it["layers"]["sim.insts"]
        with self.assertRaises(run.BenchError):
            run.assemble_trace("fig8_cold", 7, measured, None)

    def test_times_are_reported_at_the_reference_host_speed(self):
        # The host runs at half speed from pass 2 on: calibrations take
        # twice the reference time and so do the passes, which the
        # reported times do not show. Pass 1 straddles the change.
        setups, measures, ref = fake_e2e("fig8_cold", passes=5)
        measured = measures[0]
        speed = run.REFERENCE_CALIBRATION_S
        measured["calib_s"] = [speed, speed, 2 * speed, 2 * speed, 2 * speed, 2 * speed]
        for i, p in enumerate(measured["passes"]):
            p["wall_s"] = 1.5 if i == 1 else 1.0 if i == 0 else 2.0
        metrics = run.assemble_e2e("fig8_cold", run.DEFAULT_SEED, setups, measures, ref)["metrics"]
        self.assertAlmostEqual(metrics["wall_s"]["value"], 1.0)
        self.assertAlmostEqual(metrics["setup_s"]["value"], 0.5)
        measured["calib_s"].pop()
        with self.assertRaises(run.BenchError):
            run.assemble_e2e("fig8_cold", run.DEFAULT_SEED, setups, measures, ref)

    def test_passes_and_memory_pool_over_measuring_processes(self):
        setups, measures, ref = fake_e2e("fig8_cold", passes=3)
        second = copy.deepcopy(measures[0])
        second["peak_rss_mb"] = 60.0
        for p in second["passes"]:
            p["wall_s"] = 3.0
        second["passes"].append(copy.deepcopy(second["passes"][0]))
        second["calib_s"].append(run.REFERENCE_CALIBRATION_S)
        result = run.assemble_e2e("fig8_cold", run.DEFAULT_SEED, setups, [measures[0], second], ref)
        self.assertTrue(result["correct"], result)
        self.assertAlmostEqual(result["metrics"]["wall_s"]["value"], 3.0)
        self.assertAlmostEqual(result["metrics"]["peak_rss_mb"]["value"], 55.0)


if __name__ == "__main__":
    unittest.main()
