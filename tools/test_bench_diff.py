#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py gating rules.

Focus: host-timing keys (wall_ms, harness.*, jobs) must never gate a run or
appear in the diff output, while real metric regressions (cycles, speedup)
still fail. Run directly or via ctest (test name: bench_diff_unit).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIFF = os.path.join(TOOLS_DIR, "bench_diff.py")


def report(hism_cycles, speedup, wall_ms, harness=None):
    doc = {
        "schema": "smtu-bench-v1",
        "bench": "unit",
        "suite": {"scale": 0.05, "seed": 1},
        "matrices": [
            {
                "name": "m0",
                "nnz": 100,
                "hism_cycles": hism_cycles,
                "crs_cycles": 5000,
                "speedup": speedup,
                "wall_ms": wall_ms,
            }
        ],
        "summary": {"count": 1, "avg_speedup": speedup},
    }
    if harness is not None:
        doc["harness"] = harness
    return doc


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


class BenchDiffGating(unittest.TestCase):
    def test_identical_reports_pass(self):
        doc = report(1000, 5.0, 20.0)
        code, out = run_diff(doc, doc)
        self.assertEqual(code, 0, out)
        self.assertNotIn("[REGRESS]", out)

    def test_wall_ms_blowup_does_not_gate(self):
        # 100x slower wall clock with identical simulated metrics: clean.
        old = report(1000, 5.0, wall_ms=10.0)
        new = report(1000, 5.0, wall_ms=1000.0)
        code, out = run_diff(old, new, "--all")
        self.assertEqual(code, 0, out)
        self.assertNotIn("wall_ms", out)

    def test_harness_keys_are_invisible(self):
        # Baseline without a harness section vs candidate with one: the new
        # keys must not even show up as [new].
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 12.0, harness={"jobs": 8, "wall_ms": 125.0})
        code, out = run_diff(old, new, "--all")
        self.assertEqual(code, 0, out)
        self.assertNotIn("[new]", out)
        self.assertNotIn("harness", out)
        self.assertNotIn("jobs", out)

    def test_host_section_is_invisible(self):
        # The host cache-counter section varies with process history (cold vs
        # warm --sim-cache runs); like harness it must never gate or diff.
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 12.0)
        new["host"] = {
            "program_cache": {"hits": 59, "misses": 3},
            "stage_cache": {"hits": 30, "misses": 30},
            "sim_cache": {"hits": 60, "misses": 0, "stores": 0},
        }
        code, out = run_diff(old, new, "--all")
        self.assertEqual(code, 0, out)
        self.assertNotIn("[new]", out)
        self.assertNotIn("host", out)
        self.assertNotIn("sim_cache", out)

    def test_per_sec_rates_are_invisible(self):
        # Throughput rates (insts/s, cycles/s, req/s) are host speed, not
        # simulated metrics: a 10x swing must neither gate nor appear as
        # schema drift, even outside a "host" section.
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 10.0)
        new["matrices"][0]["insts_per_sec"] = 19.4e6
        new["matrices"][0]["cycles_per_sec"] = 150e6
        code, out = run_diff(old, new, "--all")
        self.assertEqual(code, 0, out)
        self.assertNotIn("[new]", out)
        self.assertNotIn("per_sec", out)

    def test_hostmicro_dispatch_records_are_invisible(self):
        # Nested per-record host throughput under "host": the whole section
        # is skipped, and the per-record rates/wall times are timing
        # fragments besides.
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 10.0)
        new["host"] = {
            "dispatch": [
                {"name": "hism_transpose", "mode": "threaded", "runs": 220,
                 "wall_ms": 201.0, "insts_per_sec": 1.9e7, "cycles_per_sec": 1.6e8},
                {"name": "hism_transpose", "mode": "switch", "runs": 60,
                 "wall_ms": 204.0, "insts_per_sec": 2.7e6, "cycles_per_sec": 2.2e7},
            ],
        }
        code, out = run_diff(old, new, "--all")
        self.assertEqual(code, 0, out)
        self.assertNotIn("[new]", out)
        self.assertNotIn("dispatch", out)

    def test_telemetry_section_is_invisible(self):
        # A telemetry-on report embeds a "telemetry" section absent from the
        # telemetry-off baseline; it must diff clean even at threshold 0.
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 10.0)
        new["telemetry"] = {
            "schema": "smtu-telemetry-v1",
            "counters": {"cache.program.hits_total": 59,
                         "pool.tasks_total": 220},
            "gauges": {"pool.queue_depth_peak": 4},
            "histograms": {
                "bench.item_wall_us": {"count": 60, "sum": 120000, "min": 90,
                                       "max": 9000, "p50": 1500, "p90": 4000,
                                       "p95": 6000, "p99": 9000,
                                       "buckets": [{"le": 2047, "n": 40},
                                                   {"le": 16383, "n": 20}]},
            },
        }
        code, out = run_diff(old, new, "--all", "--threshold=0")
        self.assertEqual(code, 0, out)
        self.assertNotIn("[new]", out)
        self.assertNotIn("telemetry", out)
        self.assertNotIn("hits_total", out)

    def test_telemetry_suffix_keys_are_invisible(self):
        # Defense in depth: stray telemetry leaves outside the "telemetry"
        # section are suffix-matched by unit (_us/_pct/_peak/_total) and
        # skipped wherever they appear.
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 10.0)
        new["matrices"][0]["stage.build_us"] = 431
        new["matrices"][0]["pool.worker_util_pct"] = 99
        new["matrices"][0]["pool.queue_depth_peak"] = 7
        new["matrices"][0]["cache.sim.bytes_total"] = 123456
        code, out = run_diff(old, new, "--all", "--threshold=0")
        self.assertEqual(code, 0, out)
        self.assertNotIn("[new]", out)
        self.assertNotIn("build_us", out)
        self.assertNotIn("util_pct", out)

    def test_simulated_bytes_keys_still_gate(self):
        # "_bytes" is deliberately NOT a skipped suffix: simulated memory
        # footprints (mem_contiguous_bytes, storage_bytes) are real metrics,
        # and one vanishing must still fail the run.
        old = report(1000, 5.0, 10.0)
        old["matrices"][0]["mem_contiguous_bytes"] = 4096
        old["matrices"][0]["storage_bytes"] = 8192
        new = report(1000, 5.0, 10.0)
        new["matrices"][0]["mem_contiguous_bytes"] = 4096
        code, out = run_diff(old, new)
        self.assertEqual(code, 1, out)
        self.assertIn("[gone]", out)
        self.assertIn("storage_bytes", out)

    def test_cycle_regression_still_fails(self):
        old = report(1000, 5.0, 10.0)
        new = report(1500, 5.0, 10.0)  # 50% more simulated cycles
        code, out = run_diff(old, new)
        self.assertEqual(code, 1, out)
        self.assertIn("[REGRESS]", out)
        self.assertIn("hism_cycles", out)

    def test_speedup_regression_still_fails(self):
        old = report(1000, 5.0, 10.0)
        new = report(1000, 3.0, 10.0)
        code, out = run_diff(old, new)
        self.assertEqual(code, 1, out)
        self.assertIn("[REGRESS]", out)

    def test_cycle_improvement_passes(self):
        old = report(1500, 5.0, 10.0)
        new = report(1000, 5.0, 10.0)
        code, out = run_diff(old, new)
        self.assertEqual(code, 0, out)
        self.assertIn("[better]", out)

    def test_gone_metric_fails(self):
        # A counter that vanishes from NEW could hide a regression: gate it.
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 10.0)
        del new["matrices"][0]["crs_cycles"]
        code, out = run_diff(old, new)
        self.assertEqual(code, 1, out)
        self.assertIn("[gone]", out)
        self.assertIn("vanished", out)

    def test_new_metric_fails_without_allow_new(self):
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 10.0)
        new["matrices"][0]["profile_cycles"] = 1000
        code, out = run_diff(old, new)
        self.assertEqual(code, 1, out)
        self.assertIn("[new]", out)
        self.assertIn("--allow-new", out)

    def test_new_metric_passes_with_allow_new(self):
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 10.0)
        new["matrices"][0]["profile_cycles"] = 1000
        code, out = run_diff(old, new, "--allow-new")
        self.assertEqual(code, 0, out)
        self.assertIn("[new]", out)  # still reported, just not gating

    def test_allow_new_does_not_cover_gone(self):
        old = report(1000, 5.0, 10.0)
        new = report(1000, 5.0, 10.0)
        del new["matrices"][0]["crs_cycles"]
        code, out = run_diff(old, new, "--allow-new")
        self.assertEqual(code, 1, out)
        self.assertIn("[gone]", out)


def serve_report(total_p99_vus=179, shed=0, req_per_sec=19414.0, wall_us=30905.0):
    """A minimal smtu-serve-v1 shape (docs/SERVING.md)."""
    return {
        "schema": "smtu-serve-v1",
        "trace": {"seed": 25252749037, "set": "locality", "scale": 0.05,
                  "requests": 600},
        "options": {"queue_depth": 64, "virtual_workers": 4,
                    "cycles_per_us": 1000, "replay_vus": 20},
        "virtual": {
            "admitted_requests": 600,
            "shed_requests": shed,
            "coalesced_requests": 68,
            "warm_requests": 497,
            "simulated_requests": 35,
            "distinct_sims": 35,
            "max_queue_depth": 3,
            "sim_cycles": 2053716,
            "offered_cycles": 19633941,
            "makespan_vus": 10545,
            "total_p50_vus": 20,
            "total_p99_vus": total_p99_vus,
        },
        "host": {"jobs": 1, "simulations": 35, "wall_us": wall_us,
                 "req_per_sec": req_per_sec, "sim_wall_us": wall_us * 0.9},
    }


class ServeReportGating(unittest.TestCase):
    def test_identical_serve_reports_diff_clean_at_zero(self):
        doc = serve_report()
        code, out = run_diff(doc, doc, "--threshold=0")
        self.assertEqual(code, 0, out)

    def test_wall_clock_serve_fragments_never_gate(self):
        # 10x slower host (req_per_sec, wall_us, sim_wall_us) with identical
        # virtual-time metrics: clean even at threshold 0, and the host keys
        # must not appear in the output at all.
        old = serve_report(req_per_sec=19414.0, wall_us=30905.0)
        new = serve_report(req_per_sec=1941.0, wall_us=309050.0)
        code, out = run_diff(old, new, "--all", "--threshold=0")
        self.assertEqual(code, 0, out)
        self.assertNotIn("req_per_sec", out)
        self.assertNotIn("wall_us", out)

    def test_virtual_latency_regression_gates(self):
        # "_vus" leaves are deterministic virtual-time latencies: lower is
        # better, and a tail blowup past the threshold must fail.
        old = serve_report(total_p99_vus=179)
        new = serve_report(total_p99_vus=400)
        code, out = run_diff(old, new, "--threshold=0.10")
        self.assertEqual(code, 1, out)
        self.assertIn("[REGRESS]", out)
        self.assertIn("total_p99_vus", out)

    def test_virtual_latency_improvement_passes(self):
        old = serve_report(total_p99_vus=400)
        new = serve_report(total_p99_vus=179)
        code, out = run_diff(old, new, "--threshold=0.10")
        self.assertEqual(code, 0, out)
        self.assertIn("[better]", out)

    def test_deterministic_counter_drift_gates_exactly(self):
        # shed_requests is a pure function of (trace, options): even a
        # one-request drift inside the relative threshold must fail.
        old = serve_report(shed=0)
        new = serve_report(shed=1)
        code, out = run_diff(old, new, "--threshold=0.10")
        self.assertEqual(code, 1, out)
        self.assertIn("[REGRESS]", out)
        self.assertIn("shed_requests", out)
        self.assertIn("exactly", out)

    def test_virtual_krps_regression_gates(self):
        # The sweep report's virtual throughput is higher-is-better.
        old = {"schema": "smtu-serve-sweep-v1",
               "open_loop": [{"rate_rps": 20000.0, "virtual_krps": 22.1,
                              "total_p99_vus": 179}]}
        new = {"schema": "smtu-serve-sweep-v1",
               "open_loop": [{"rate_rps": 20000.0, "virtual_krps": 11.0,
                              "total_p99_vus": 179}]}
        code, out = run_diff(old, new, "--threshold=0.10")
        self.assertEqual(code, 1, out)
        self.assertIn("[REGRESS]", out)
        self.assertIn("virtual_krps", out)


if __name__ == "__main__":
    unittest.main()
