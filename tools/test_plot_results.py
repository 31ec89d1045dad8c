#!/usr/bin/env python3
"""Unit tests for tools/plot_results.py.

Feeds the two shapes the benches write with --json (the smtu-bench-v1
report of fig11/12/13 and summary_speedup, and the Fig. 10 table array)
plus an ablation table through the script. Drawing runs against a stub
matplotlib that records nothing, so the test needs no plotting library;
an unrecognized table must be skipped without importing matplotlib at all.
Run directly or via ctest (test name: plot_results_unit).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
PLOT_RESULTS = os.path.join(TOOLS_DIR, "plot_results.py")

# A matplotlib stand-in: subplots hands out MagicMock figures and axes, so
# savefig writes nothing, but every key the script reads from its input is
# still read.
STUB_INIT = "def use(backend):\n    pass\n"
STUB_PYPLOT = """\
from unittest import mock


def subplots(*args, **kwargs):
    ax = mock.MagicMock()
    ax.get_legend_handles_labels.return_value = ([], [])
    ax.twinx.return_value.get_legend_handles_labels.return_value = ([], [])
    return mock.MagicMock(), ax
"""

BENCH_REPORT = {
    "schema": "smtu-bench-v1",
    "bench": "locality",
    "matrices": [
        {"name": "m0", "set": "locality", "nnz": 100, "hism_cycles": 500,
         "crs_cycles": 5000, "hism_cycles_per_nnz": 5.0, "crs_cycles_per_nnz": 50.0,
         "speedup": 10.0},
        {"name": "m1", "set": "locality", "nnz": 200, "hism_cycles": 800,
         "crs_cycles": 4000, "hism_cycles_per_nnz": 4.0, "crs_cycles_per_nnz": 20.0,
         "speedup": 5.0},
    ],
    "summary": {"count": 2, "avg_speedup": 7.5},
}
FIG10_TABLE = [
    {"B": 1, "L=1": 0.9, "L=2": 0.95},
    {"B": 2, "L=1": 0.5, "L=2": 0.8},
]
ABLATION_TABLE = [{"matrix": "m0", "nnz": 100, "HiSM/CRS": 0.6}]


def run_plot(documents, stub=True):
    """Writes each document to <name>.json and runs the script on them all."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ)
        if stub:
            package = os.path.join(tmp, "stub", "matplotlib")
            os.makedirs(package)
            with open(os.path.join(package, "__init__.py"), "w", encoding="utf-8") as handle:
                handle.write(STUB_INIT)
            with open(os.path.join(package, "pyplot.py"), "w", encoding="utf-8") as handle:
                handle.write(STUB_PYPLOT)
            env["PYTHONPATH"] = os.path.join(tmp, "stub")
        else:
            # Hide any installed matplotlib behind a package that cannot import.
            package = os.path.join(tmp, "broken", "matplotlib")
            os.makedirs(package)
            with open(os.path.join(package, "__init__.py"), "w", encoding="utf-8") as handle:
                handle.write("raise ImportError('hidden by the test')\n")
            env["PYTHONPATH"] = os.path.join(tmp, "broken")
        paths = []
        for name, document in documents.items():
            path = os.path.join(tmp, name + ".json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            paths.append(path)
        result = subprocess.run(
            [sys.executable, PLOT_RESULTS, *paths],
            capture_output=True,
            text=True,
            check=False,
            env=env,
        )
    return result.returncode, result.stdout + result.stderr


class PlotResultsShapes(unittest.TestCase):
    def test_bench_report_plots_matrix_records(self):
        code, out = run_plot({"fig11": BENCH_REPORT})
        self.assertEqual(code, 0, out)
        self.assertIn("fig11.png", out)
        self.assertNotIn("Traceback", out)

    def test_fig10_table_plots_utilization_lines(self):
        code, out = run_plot({"fig10": FIG10_TABLE})
        self.assertEqual(code, 0, out)
        self.assertIn("fig10.png", out)

    def test_ablation_table_is_skipped_without_matplotlib(self):
        code, out = run_plot({"ablation": ABLATION_TABLE}, stub=False)
        self.assertEqual(code, 0, out)
        self.assertIn("unrecognized table shape, skipped", out)
        self.assertNotIn("matplotlib is not installed", out)

    def test_empty_inputs_are_skipped(self):
        report = dict(BENCH_REPORT, matrices=[])
        code, out = run_plot({"empty": [], "no_matrices": report}, stub=False)
        self.assertEqual(code, 0, out)
        self.assertIn("empty, skipped", out)
        self.assertIn("no matrices, skipped", out)

    def test_drawing_without_matplotlib_fails_with_a_message(self):
        code, out = run_plot({"fig10": FIG10_TABLE}, stub=False)
        self.assertEqual(code, 1, out)
        self.assertIn("matplotlib is not installed", out)


if __name__ == "__main__":
    unittest.main()
