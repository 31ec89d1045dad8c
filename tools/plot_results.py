#!/usr/bin/env python3
"""Plot smtu benchmark results exported with --json.

Usage:
    # 1. export the data
    build/bench/fig10_buffer_utilization --json=out/fig10.json
    build/bench/fig11_locality           --json=out/fig11.json
    build/bench/fig12_nonzeros_per_row   --json=out/fig12.json
    build/bench/fig13_size               --json=out/fig13.json

    # 2. render PNGs next to the JSON files
    tools/plot_results.py out/fig10.json out/fig11.json out/fig12.json out/fig13.json

Two input shapes are recognized:
  * the smtu-bench-v1 report of the comparison benches (fig11/12/13,
    summary_speedup) becomes the paper's bar-plus-line layout: HiSM and CRS
    cycles/nnz per matrix as bars on a log axis, speedup as a line on a
    second axis;
  * a table-shaped bench's array of rows with a "B" column (the Fig. 10
    grid: B plus L=... columns) becomes a line chart of utilization vs B.
Any other table (the ablations) is reported as unrecognized and skipped.

Requires matplotlib to draw; prints a friendly message if it is unavailable.
"""

import json
import pathlib
import sys


def pyplot():
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:  # pragma: no cover - environment dependent
        sys.stderr.write("matplotlib is not installed; pip install matplotlib to plot\n")
        sys.exit(1)
    return plt


def plot_fig10(rows, out_path):
    plt = pyplot()
    fig, ax = plt.subplots(figsize=(6, 4))
    bandwidths = [row["B"] for row in rows]
    line_columns = [key for key in rows[0] if key.startswith("L=")]
    for column in line_columns:
        ax.plot(bandwidths, [row[column] for row in rows], marker="o", label=column)
    ax.set_xlabel("buffer bandwidth B")
    ax.set_ylabel("buffer utilization BU")
    ax.set_xscale("log", base=2)
    ax.set_ylim(0, 1.05)
    ax.grid(True, alpha=0.3)
    ax.legend(title="accessible lines")
    ax.set_title("Fig. 10 — STM buffer bandwidth utilization")
    fig.tight_layout()
    fig.savefig(out_path, dpi=150)
    print(f"wrote {out_path}")


def plot_matrices(records, out_path, title):
    plt = pyplot()
    names = [record["name"] for record in records]
    hism = [record["hism_cycles_per_nnz"] for record in records]
    crs = [record["crs_cycles_per_nnz"] for record in records]
    speedup = [record["speedup"] for record in records]

    fig, ax = plt.subplots(figsize=(9, 4.5))
    x = range(len(names))
    width = 0.35
    ax.bar([i - width / 2 for i in x], hism, width, label="HiSM cycles/nnz")
    ax.bar([i + width / 2 for i in x], crs, width, label="CRS cycles/nnz")
    ax.set_yscale("log")
    ax.set_ylabel("cycles per non-zero (log)")
    ax.set_xticks(list(x))
    ax.set_xticklabels(names, rotation=45, ha="right", fontsize=8)
    ax.grid(True, axis="y", alpha=0.3)

    twin = ax.twinx()
    twin.plot(list(x), speedup, color="black", marker="d", label="speedup")
    twin.set_ylabel("HiSM speedup over CRS")
    twin.set_ylim(bottom=0)

    handles_a, labels_a = ax.get_legend_handles_labels()
    handles_b, labels_b = twin.get_legend_handles_labels()
    ax.legend(handles_a + handles_b, labels_a + labels_b, loc="upper right")
    ax.set_title(title)
    fig.tight_layout()
    fig.savefig(out_path, dpi=150)
    print(f"wrote {out_path}")


def main(paths):
    if not paths:
        sys.stderr.write(__doc__)
        return 2
    for raw in paths:
        path = pathlib.Path(raw)
        document = json.loads(path.read_text())
        out_path = path.with_suffix(".png")
        if isinstance(document, dict) and document.get("schema") == "smtu-bench-v1":
            if document.get("matrices"):
                plot_matrices(document["matrices"], out_path, path.stem)
            else:
                print(f"{path}: no matrices, skipped")
        elif isinstance(document, list) and not document:
            print(f"{path}: empty, skipped")
        elif isinstance(document, list) and isinstance(document[0], dict) and "B" in document[0]:
            plot_fig10(document, out_path)
        else:
            print(f"{path}: unrecognized table shape, skipped")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
