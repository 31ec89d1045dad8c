#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py's one rule.

Only the host keys (harness, host, telemetry, wall_ms) may differ between a
report and its baseline; every other value must match exactly, whatever
its name or type. Run directly or via ctest (test name: bench_diff_unit).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIFF = os.path.join(TOOLS_DIR, "bench_diff.py")


def bench_report():
    """A minimal smtu-bench-v1 shape (docs/TRACE.md)."""
    return {
        "schema": "smtu-bench-v1",
        "bench": "summary_speedup",
        "config": {"section": 64, "chaining": True,
                   "stm": {"bandwidth": 4, "lines": 4, "double_buffer": False}},
        "suite": {"scale": 0.05, "seed": 3584808363},
        "harness": {"jobs": 1, "wall_ms": 210.6},
        "host": {"program_cache": {"hits": 58, "misses": 2},
                 "sim_cache": None},
        "matrices": [
            {
                "name": "bcspwr10-syn",
                "set": "locality",
                "nnz": 3000,
                "hism_cycles": 42951,
                "crs_cycles": 232291,
                "speedup": 5.40828,
                "wall_ms": 3.2,
                "hism": {"cycles": 42951, "instructions": 37459,
                         "mem_contiguous_bytes": 52720},
            },
            {
                "name": "qc324-syn",
                "set": "locality",
                "nnz": 5000,
                "hism_cycles": 20000,
                "crs_cycles": 600000,
                "speedup": 30.0,
                "wall_ms": 4.1,
                "hism": {"cycles": 20000, "instructions": 15000,
                         "mem_contiguous_bytes": 80000},
            },
        ],
        "summary": {"count": 2, "avg_speedup": 17.70414},
    }


def scaling_report():
    """A minimal smtu-scaling-v1 shape (docs/MULTICORE.md)."""
    return {
        "schema": "smtu-scaling-v1",
        "suite": {"scale": 0.05, "seed": 3584808363},
        "harness": {"jobs": 4, "wall_ms": 210.6},
        "matrices": [{
            "name": "bcspwr10-syn",
            "kernels": {"hism_sharded": [{
                "cores": 2,
                "cycles": 36000,
                "barriers": 2,
                "memory": {"requests": 1568, "contended_requests": 12},
                "per_core": [{"core": 0, "busy": {"scalar": 11800},
                              "stalls": {"raw_hazard": 0, "barrier_wait": 40}}],
            }]},
        }],
    }


def serve_report():
    """A minimal smtu-serve-v1 shape (docs/SERVING.md)."""
    return {
        "schema": "smtu-serve-v1",
        "trace": {"seed": 25252749037, "set": "locality", "scale": 0.05,
                  "requests": 2},
        "options": {"dedup": True, "batching": True, "queue_depth": 64},
        "virtual": {
            "shed_requests": 0,
            "coalesced_requests": 1,
            "total_p99_vus": 179,
            "requests": [
                {"id": 0, "outcome": "simulated", "total_vus": 7},
                {"id": 1, "outcome": "coalesced", "total_vus": 5},
            ],
        },
        "host": {"jobs": 1, "wall_us": 30905.0, "req_per_sec": 19414.3},
    }


def run_diff(old, new, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        old_path = os.path.join(tmp, "old.json")
        new_path = os.path.join(tmp, "new.json")
        with open(old_path, "w", encoding="utf-8") as handle:
            json.dump(old, handle)
        with open(new_path, "w", encoding="utf-8") as handle:
            json.dump(new, handle)
        result = subprocess.run(
            [sys.executable, BENCH_DIFF, old_path, new_path, *extra],
            capture_output=True,
            text=True,
            check=False,
        )
    return result.returncode, result.stdout + result.stderr


def edited(doc, edit):
    """A deep copy of `doc` with `edit` applied to it."""
    copied = copy.deepcopy(doc)
    edit(copied)
    return copied


class HostKeysAreDropped(unittest.TestCase):
    def test_identical_reports_pass(self):
        for doc in (bench_report(), scaling_report(), serve_report()):
            code, out = run_diff(doc, doc)
            self.assertEqual(code, 0, out)
            self.assertNotIn("[DIFF]", out)

    def test_wall_ms_change_passes(self):
        def slower(doc):
            for record in doc["matrices"]:
                record["wall_ms"] *= 100
        code, out = run_diff(bench_report(), edited(bench_report(), slower))
        self.assertEqual(code, 0, out)
        self.assertNotIn("wall_ms", out)

    def test_harness_section_change_passes(self):
        def rerun(doc):
            doc["harness"] = {"jobs": 8, "wall_ms": 125.0}
        code, out = run_diff(bench_report(), edited(bench_report(), rerun))
        self.assertEqual(code, 0, out)
        # A baseline written without a harness section passes too.
        old = edited(bench_report(), lambda doc: doc.pop("harness"))
        code, out = run_diff(old, bench_report())
        self.assertEqual(code, 0, out)
        self.assertNotIn("harness", out)

    def test_host_section_change_passes(self):
        def warm(doc):
            doc["host"] = {"program_cache": {"hits": 60, "misses": 0},
                           "sim_cache": {"hits": 60, "misses": 0, "stores": 0}}
        code, out = run_diff(bench_report(), edited(bench_report(), warm))
        self.assertEqual(code, 0, out)
        self.assertNotIn("sim_cache", out)

        def slow_host(doc):
            doc["host"].update(jobs=4, wall_us=309050.0, req_per_sec=1941.0)
        code, out = run_diff(serve_report(), edited(serve_report(), slow_host))
        self.assertEqual(code, 0, out)
        self.assertNotIn("req_per_sec", out)

    def test_telemetry_section_passes(self):
        def instrumented(doc):
            doc["telemetry"] = {
                "schema": "smtu-telemetry-v1",
                "counters": {"cache.program.hits_total": 59},
                "histograms": {"bench.item_wall_us": {"count": 60, "p99": 9000}},
            }
        code, out = run_diff(bench_report(), edited(bench_report(), instrumented))
        self.assertEqual(code, 0, out)
        self.assertNotIn("telemetry", out)

    def test_host_is_a_key_not_a_name_fragment(self):
        # Only the four keys are host; a wall-clock-looking name elsewhere
        # is a value like any other.
        def rate(doc):
            doc["virtual"]["sim_wall_us"] = 17.0
        code, out = run_diff(serve_report(), edited(serve_report(), rate))
        self.assertEqual(code, 1, out)
        self.assertIn("$.virtual.sim_wall_us: new in NEW", out)


class SimulatedValuesMatchExactly(unittest.TestCase):
    def assert_fails(self, old, new, path):
        code, out = run_diff(old, new)
        self.assertEqual(code, 1, out)
        self.assertIn(f"[DIFF] {path}", out)

    def test_changed_barrier_count_fails(self):
        def edit(doc):
            doc["matrices"][0]["kernels"]["hism_sharded"][0]["barriers"] = 3
        self.assert_fails(scaling_report(), edited(scaling_report(), edit),
                          "$.matrices[0].kernels.hism_sharded[0].barriers: 2 -> 3")

    def test_changed_stall_bucket_fails(self):
        def edit(doc):
            run = doc["matrices"][0]["kernels"]["hism_sharded"][0]
            run["per_core"][0]["stalls"]["raw_hazard"] = 9
        self.assert_fails(
            scaling_report(), edited(scaling_report(), edit),
            "$.matrices[0].kernels.hism_sharded[0].per_core[0].stalls.raw_hazard")

    def test_changed_contended_requests_fails(self):
        def edit(doc):
            run = doc["matrices"][0]["kernels"]["hism_sharded"][0]
            run["memory"]["contended_requests"] = 13
        self.assert_fails(scaling_report(), edited(scaling_report(), edit),
                          "$.matrices[0].kernels.hism_sharded[0].memory."
                          "contended_requests")

    def test_changed_instructions_fails(self):
        def edit(doc):
            doc["matrices"][1]["hism"]["instructions"] += 1
        self.assert_fails(bench_report(), edited(bench_report(), edit),
                          "$.matrices[1].hism.instructions: 15000 -> 15001")

    def test_changed_outcome_fails(self):
        def edit(doc):
            doc["virtual"]["requests"][1]["outcome"] = "warm"
        self.assert_fails(serve_report(), edited(serve_report(), edit),
                          "$.virtual.requests[1].outcome: 'coalesced' -> 'warm'")

    def test_changed_matrix_name_fails(self):
        def edit(doc):
            doc["matrices"][0]["name"] = "bcspwr09-syn"
        self.assert_fails(bench_report(), edited(bench_report(), edit),
                          "$.matrices[0].name")

    def test_changed_boolean_config_echo_fails(self):
        def edit(doc):
            doc["config"]["stm"]["double_buffer"] = True
        self.assert_fails(bench_report(), edited(bench_report(), edit),
                          "$.config.stm.double_buffer: False -> True")

    def test_changed_run_descriptors_fail(self):
        sweep = {"schema": "smtu-serve-sweep-v1", "seed": 7, "scale": 0.05,
                 "open_loop": [{"rate_rps": 20000.0, "virtual_krps": 22.1}]}
        for key, value in (("schema", "smtu-serve-sweep-v2"), ("seed", 8),
                           ("scale", 0.1)):
            with self.subTest(key=key):
                new = dict(sweep, **{key: value})
                self.assert_fails(sweep, new, f"$.{key}")

        def edit(doc):
            doc["suite"]["scale"] = 0.1
        self.assert_fails(bench_report(), edited(bench_report(), edit),
                          "$.suite.scale: 0.05 -> 0.1")

    def test_lowered_cycle_count_fails(self):
        def edit(doc):
            doc["matrices"][0]["hism_cycles"] -= 100
        self.assert_fails(bench_report(), edited(bench_report(), edit),
                          "$.matrices[0].hism_cycles: 42951 -> 42851")

    def test_raised_cycle_count_fails(self):
        def edit(doc):
            doc["matrices"][0]["hism_cycles"] += 100
        self.assert_fails(bench_report(), edited(bench_report(), edit),
                          "$.matrices[0].hism_cycles: 42951 -> 43051")

    def test_changed_virtual_latency_fails(self):
        def edit(doc):
            doc["virtual"]["total_p99_vus"] = 178
        self.assert_fails(serve_report(), edited(serve_report(), edit),
                          "$.virtual.total_p99_vus: 179 -> 178")

    def test_changed_json_type_fails(self):
        # Python's True == 1, but a boolean and a number are different JSON
        # values; so are a number and the string that spells it.
        def as_number(doc):
            doc["options"]["dedup"] = 1
        self.assert_fails(serve_report(), edited(serve_report(), as_number),
                          "$.options.dedup: True -> 1")

        def as_string(doc):
            doc["trace"]["requests"] = "2"
        self.assert_fails(serve_report(), edited(serve_report(), as_string),
                          "$.trace.requests: 2 -> '2'")

    def test_every_difference_is_printed(self):
        def edit(doc):
            doc["matrices"][0]["crs_cycles"] += 1
            doc["matrices"][1]["speedup"] = 29.0
            doc["summary"]["avg_speedup"] = 17.2
        code, out = run_diff(bench_report(), edited(bench_report(), edit))
        self.assertEqual(code, 1, out)
        self.assertEqual(out.count("[DIFF]"), 3, out)
        self.assertIn("3 difference(s)", out)


class ShapeMatchesExactly(unittest.TestCase):
    def test_gone_key_fails(self):
        def edit(doc):
            del doc["matrices"][0]["hism"]["mem_contiguous_bytes"]
        code, out = run_diff(bench_report(), edited(bench_report(), edit))
        self.assertEqual(code, 1, out)
        self.assertIn("$.matrices[0].hism.mem_contiguous_bytes: gone from NEW", out)

    def test_new_key_fails(self):
        def edit(doc):
            doc["matrices"][0]["profile_cycles"] = 1000
        code, out = run_diff(bench_report(), edited(bench_report(), edit))
        self.assertEqual(code, 1, out)
        self.assertIn("$.matrices[0].profile_cycles: new in NEW", out)

    def test_shorter_array_fails(self):
        def edit(doc):
            doc["matrices"].pop()
        code, out = run_diff(bench_report(), edited(bench_report(), edit))
        self.assertEqual(code, 1, out)
        self.assertIn("$.matrices: length 2 -> 1", out)

    def test_reordered_array_fails(self):
        def edit(doc):
            doc["matrices"].reverse()
        code, out = run_diff(bench_report(), edited(bench_report(), edit))
        self.assertEqual(code, 1, out)
        self.assertIn("$.matrices[0].name: 'bcspwr10-syn' -> 'qc324-syn'", out)


class Usage(unittest.TestCase):
    def test_unreadable_file_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = os.path.join(tmp, "good.json")
            with open(good, "w", encoding="utf-8") as handle:
                json.dump(bench_report(), handle)
            garbled = os.path.join(tmp, "garbled.json")
            with open(garbled, "w", encoding="utf-8") as handle:
                handle.write('{"schema": ')
            for other in (os.path.join(tmp, "missing.json"), garbled):
                with self.subTest(other=os.path.basename(other)):
                    result = subprocess.run(
                        [sys.executable, BENCH_DIFF, good, other],
                        capture_output=True, text=True, check=False)
                    self.assertEqual(result.returncode, 2, result.stderr)
                    self.assertIn("cannot read", result.stderr)

    def test_options_are_usage_errors(self):
        doc = bench_report()
        for option in ("--threshold=0.0", "--all", "--allow-new"):
            with self.subTest(option=option):
                code, out = run_diff(doc, doc, option)
                self.assertEqual(code, 2, out)


if __name__ == "__main__":
    unittest.main()
