#!/usr/bin/env python3
"""Render and diff smtu-profile-v1 cycle-attribution profiles as text tables.

Usage:
    tools/prof_report.py show [PROFILE.json] [--top=10] [--matrix=NAME]
                         [--kernel=hism|crs] [--per-core]
                         [--telemetry=TELEMETRY.json] [--serve=SERVE.json]
    tools/prof_report.py diff OLD.json NEW.json [--top=10] [--matrix=NAME]
                         [--kernel=hism|crs]

Accepts either a bare smtu-profile-v1 document (what ``vsim_run
--profile-json`` writes) or an smtu-bench-v1 / smtu-repro-v1 report produced
with ``--profile``, in which case --matrix selects the record (default: the
first profiled one) and --kernel the side (default: both).

``show`` also reads smtu-scaling-v1 reports (bench/ext_multicore_scaling
--json): per (matrix, kernel, core count) it rolls the per-core busy/stall
buckets up across cores, and ``--per-core`` adds a one-row-per-core table
(cycles, busy/stall split, dominant stall) — the multi-core stall taxonomy
of docs/MULTICORE.md. There --kernel selects hism_sharded or crs_parallel.

``show`` prints, per profile: the cycle-attribution breakdown (every busy and
stall bucket with its share of total cycles — the buckets sum to the total
exactly, see docs/PROFILING.md), functional-unit occupancy, per-region
roll-ups, and the top-N hottest source lines.

``--telemetry=TELEMETRY.json`` renders host telemetry (docs/TELEMETRY.md):
counters/gauges, one table row per latency histogram (count, min, p50/p90/
p95/p99, max, mean), and a cache hit-rate rollup derived from the
``cache.<name>.{hits,misses}_total`` counters. Accepts a standalone
smtu-telemetry-v1 document (``--telemetry-json`` on any bench binary or
vsim_run) or a bench/repro report produced with ``--telemetry`` (the
embedded "telemetry" section). Host-side metrics — bench_diff.py never
gates on them.

``--serve=SERVE.json`` renders an smtu-serve-v1 report (``smtu_serve
--json``, docs/SERVING.md): the deterministic virtual-time latency
percentile table (queue/service/total), the request-outcome and dedup
rollups (coalesced / warm / shed shares, cycle dedup factor), and the host
wall-clock summary. The virtual metrics are gated by bench_diff.py; the
host line is wall clock and never gated.

``diff`` compares two profiles of the same program bucket by bucket, region
by region, and line by line, printing the largest movers first — the tool for
answering "where did the cycles go" between two kernel revisions.

Exit status: 0 on success, 2 on usage errors or unreadable input.
"""

import argparse
import json
import sys

SCHEMA = "smtu-profile-v1"


def fail(message):
    print(f"prof_report: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read {path}: {error}")


def iter_matrix_records(document):
    """Yield every per-matrix record of a bench/repro report, in order."""
    for record in document.get("matrices", []):
        yield record
    for figure in document.get("figures", []):
        for record in figure.get("matrices", []):
            yield record


def extract_profiles(document, matrix, kernel):
    """Return [(label, profile), ...] from any supported document shape."""
    if document.get("schema") == SCHEMA:
        return [("", document)]
    found = []
    for record in iter_matrix_records(document):
        profile = record.get("profile")
        if not profile:
            continue
        name = record.get("name", "?")
        if matrix is not None and name != matrix:
            continue
        for side in ("hism", "crs"):
            if kernel is not None and side != kernel:
                continue
            if side in profile:
                found.append((f"{name}/{side}", profile[side]))
        if matrix is None:
            break  # default: first profiled record only
    if not found:
        fail("no matching profile section (was the report made with --profile, "
             "and do --matrix/--kernel match?)")
    return found


def print_table(header, rows):
    widths = [len(cell) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells):
        print("  " + "  ".join(cell.ljust(width)
                               for cell, width in zip(cells, widths)).rstrip())
    line(header)
    line(["-" * width for width in widths])
    for row in rows:
        line(row)
    print()


def percent(part, total):
    return f"{100.0 * part / total:.1f}%" if total else "0.0%"


def show_profile(label, profile, top):
    title = f"profile {label}".strip()
    cycles = profile["cycles"]
    print(f"== {title}: {cycles} cycles over {profile['runs']} run(s) ==\n")

    buckets = profile["buckets"]
    attributed = sum(buckets.values())
    rows = [[name, str(value), percent(value, cycles)]
            for name, value in buckets.items() if value]
    print_table(["bucket", "cycles", "share"], rows)
    if attributed != cycles:
        print(f"  WARNING: buckets sum to {attributed}, not {cycles}\n")

    rows = [[name, str(fu["instructions"]), str(fu["occupancy_cycles"]),
             str(fu["idle_cycles"]), f"{fu['occupancy']:.3f}"]
            for name, fu in profile["fu"].items()]
    print_table(["unit", "instructions", "occupied", "idle", "occupancy"], rows)

    regions = profile.get("regions", [])
    if regions:
        rows = [[region["name"], str(region["issued"]),
                 str(region["busy_cycles"]), str(region["stall_cycles"]),
                 percent(region["busy_cycles"] + region["stall_cycles"], cycles)]
                for region in regions]
        print_table(["region", "issued", "busy", "stall", "share"], rows)

    lines = sorted(profile.get("lines", []),
                   key=lambda entry: -(entry["busy_cycles"] + entry["stall_cycles"]))
    rows = []
    for entry in lines[:top]:
        total = entry["busy_cycles"] + entry["stall_cycles"]
        rows.append([f"L{entry['line']}", str(total), percent(total, cycles),
                     str(entry["busy_cycles"]), str(entry["stall_cycles"]),
                     entry.get("region", ""), entry["text"]])
    if rows:
        print(f"  top {min(top, len(lines))} source lines by attributed cycles:")
        print_table(["line", "cycles", "share", "busy", "stall", "region", "text"],
                    rows)


def show_scaling(document, matrix, kernel, per_core, top):
    """Per-core rollups of an smtu-scaling-v1 report (one block per
    (matrix, kernel, core count) scale point)."""
    shown = False
    for record in document.get("matrices", []):
        name = record.get("name", "?")
        if matrix is not None and name != matrix:
            continue
        for kernel_name, points in record.get("kernels", {}).items():
            if kernel is not None and kernel_name != kernel:
                continue
            for point in points:
                memory = point.get("memory", {})
                print(f"== {name}/{kernel_name} N={point['cores']}: "
                      f"{point['cycles']} cycles, {point['barriers']} barrier(s), "
                      f"{memory.get('contention_cycles', 0)} bank-contention "
                      f"cycle(s) ==\n")
                cores = point.get("per_core", [])
                if per_core:
                    rows = []
                    for core in cores:
                        busy = sum(core["busy"].values())
                        stall = sum(core["stalls"].values())
                        worst = max(core["stalls"].items(),
                                    key=lambda bucket: bucket[1],
                                    default=("-", 0))
                        rows.append([str(core["core"]), str(core["cycles"]),
                                     str(busy), str(stall),
                                     percent(stall, core["cycles"]),
                                     worst[0] if worst[1] else "-"])
                    print_table(["core", "cycles", "busy", "stall", "stall%",
                                 "top stall"], rows)
                totals = {}
                for core in cores:
                    for prefix, buckets in (("busy_", core["busy"]),
                                            ("stall_", core["stalls"])):
                        for bucket, value in buckets.items():
                            key = prefix + bucket
                            totals[key] = totals.get(key, 0) + value
                attributed = sum(totals.values())
                rows = [[bucket, str(value), percent(value, attributed)]
                        for bucket, value in sorted(totals.items(),
                                                    key=lambda item: -item[1])
                        if value][:top]
                print_table(["bucket (all cores)", "cycles", "share"], rows)
                shown = True
        if matrix is None and shown:
            break  # default: first record only
    if not shown:
        fail("no matching scaling record (check --matrix/--kernel)")


def extract_telemetry(document):
    """The smtu-telemetry-v1 object of a standalone document or a bench/repro
    report's embedded "telemetry" section; one-line failure otherwise."""
    telemetry = None
    if isinstance(document, dict):
        if document.get("schema") == "smtu-telemetry-v1":
            telemetry = document
        elif isinstance(document.get("telemetry"), dict) and \
                document["telemetry"].get("schema") == "smtu-telemetry-v1":
            telemetry = document["telemetry"]
    if telemetry is None:
        fail("no telemetry section (expected an smtu-telemetry-v1 document "
             "or a report produced with --telemetry)")
    return telemetry


def show_telemetry(document):
    """Render host telemetry (docs/TELEMETRY.md): counters/gauges, latency
    histograms, and the cache hit-rate rollup. Host-side metrics, never
    gated by bench_diff."""
    telemetry = extract_telemetry(document)
    counters = telemetry.get("counters", {})
    gauges = telemetry.get("gauges", {})
    histograms = telemetry.get("histograms", {})
    print("== host telemetry (docs/TELEMETRY.md; host-side metrics, "
          "never gated) ==\n")

    rows = [[name, str(value)] for name, value in counters.items()]
    rows += [[name, f"{value} (peak)"] for name, value in gauges.items()]
    if rows:
        print_table(["metric", "value"], rows)

    rows = []
    for name, hist in histograms.items():
        count = hist.get("count", 0)
        mean = f"{hist['sum'] / count:.1f}" if count else "-"
        rows.append([name, str(count), str(hist.get("min", 0)),
                     str(hist.get("p50", 0)), str(hist.get("p90", 0)),
                     str(hist.get("p95", 0)), str(hist.get("p99", 0)),
                     str(hist.get("max", 0)), mean])
    if rows:
        print_table(["histogram", "count", "min", "p50", "p90", "p95", "p99",
                     "max", "mean"], rows)

    caches = {}
    for name, value in counters.items():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] == "cache" and \
                parts[2] in ("hits_total", "misses_total"):
            caches.setdefault(parts[1], {})[parts[2]] = value
    rows = []
    for name in sorted(caches):
        hits = caches[name].get("hits_total", 0)
        misses = caches[name].get("misses_total", 0)
        total = hits + misses
        rate = f"{100.0 * hits / total:.1f}%" if total else "-"
        rows.append([name, str(hits), str(misses), rate])
    if rows:
        print("  cache hit rates:")
        print_table(["cache", "hits", "misses", "hit rate"], rows)


def show_serve(document):
    """Render an smtu-serve-v1 report (smtu_serve --json, docs/SERVING.md):
    the virtual-time latency percentile table, the dedup/result-cache
    rollup, shed count, and the host wall-clock summary."""
    if not (isinstance(document, dict) and
            document.get("schema") == "smtu-serve-v1" and
            isinstance(document.get("virtual"), dict)):
        fail("no serve report (expected an smtu-serve-v1 document from "
             "smtu_serve --json)")
    virt = document["virtual"]
    trace = document.get("trace", {})
    options = document.get("options", {})

    print(f"== serve report (docs/SERVING.md): {trace.get('requests', '?')} "
          f"requests, set={trace.get('set', '?')} "
          f"scale={trace.get('scale', '?')} "
          f"arrival={trace.get('arrival_mode', '?')} "
          f"zipf={trace.get('zipf_skew', '?')} ==\n")

    rows = []
    for metric in ("queue", "service", "total"):
        rows.append([metric] +
                    [str(virt.get(f"{metric}_{point}_vus", 0))
                     for point in ("min", "p50", "p90", "p95", "p99", "max")] +
                    [f"{virt.get(f'{metric}_mean_vus', 0.0):.1f}"])
    print("  virtual-time latency (vus; deterministic, gated by "
          "bench_diff.py):")
    print_table(["latency", "min", "p50", "p90", "p95", "p99", "max", "mean"],
                rows)

    admitted = virt.get("admitted_requests", 0)
    shed = virt.get("shed_requests", 0)
    offered = admitted + shed

    def share(count):
        return f"{100.0 * count / offered:.1f}%" if offered else "-"

    rows = [[name, str(virt.get(key, 0)), share(virt.get(key, 0))]
            for name, key in (("simulated (fresh)", "simulated_requests"),
                              ("coalesced (in-flight dedup)",
                               "coalesced_requests"),
                              ("warm (result cache)", "warm_requests"),
                              ("shed (queue full)", "shed_requests"))]
    print(f"  outcomes over {offered} requests "
          f"(queue depth {options.get('queue_depth', '?')}, "
          f"{options.get('virtual_workers', '?')} virtual workers):")
    print_table(["outcome", "requests", "share"], rows)

    sim_cycles = virt.get("sim_cycles", 0)
    offered_cycles = virt.get("offered_cycles", 0)
    dedup = f"{offered_cycles / sim_cycles:.2f}x" if sim_cycles else "-"
    rows = [
        ["distinct simulations", str(virt.get("distinct_sims", 0))],
        ["simulated cycles", str(sim_cycles)],
        ["offered cycles (dedup-less)", str(offered_cycles)],
        ["cycle dedup factor", dedup],
        ["max queue depth", str(virt.get("max_queue_depth", 0))],
        ["makespan (vus)", str(virt.get("makespan_vus", 0))],
    ]
    print_table(["rollup", "value"], rows)

    host = document.get("host")
    if isinstance(host, dict):
        print(f"  host: {host.get('simulations', '?')} simulations, "
              f"{host.get('req_per_sec', 0.0):.0f} req/s over "
              f"{host.get('wall_us', 0.0) / 1000.0:.1f} ms wall "
              f"(jobs={host.get('jobs', '?')}; wall clock, never gated)\n")


def diff_numeric(name, old, new, rows):
    if old == new:
        return
    delta = new - old
    relative = f"{delta / old:+.1%}" if old else "n/a"
    rows.append((abs(delta), [name, str(old), str(new), f"{delta:+d}", relative]))


def diff_profiles(label, old, new, top):
    title = f"profile diff {label}".strip()
    print(f"== {title}: {old['cycles']} -> {new['cycles']} cycles "
          f"({new['cycles'] - old['cycles']:+d}) ==\n")

    rows = []
    for name in set(old["buckets"]) | set(new["buckets"]):
        diff_numeric(name, old["buckets"].get(name, 0),
                     new["buckets"].get(name, 0), rows)
    for side_old, side_new, prefix in ((old, new, "region "),):
        old_regions = {r["name"]: r for r in side_old.get("regions", [])}
        new_regions = {r["name"]: r for r in side_new.get("regions", [])}
        for name in set(old_regions) | set(new_regions):
            def total(regions):
                region = regions.get(name)
                return region["busy_cycles"] + region["stall_cycles"] if region else 0
            diff_numeric(prefix + name, total(old_regions), total(new_regions), rows)
    if rows:
        rows.sort(key=lambda entry: -entry[0])
        print_table(["bucket", "old", "new", "delta", "rel"],
                    [row for _, row in rows])
    else:
        print("  buckets and regions identical\n")

    def line_totals(profile):
        return {(entry["line"], entry["text"]):
                entry["busy_cycles"] + entry["stall_cycles"]
                for entry in profile.get("lines", [])}
    old_lines, new_lines = line_totals(old), line_totals(new)
    rows = []
    for key in set(old_lines) | set(new_lines):
        before, after = old_lines.get(key, 0), new_lines.get(key, 0)
        if before != after:
            rows.append((abs(after - before),
                         [f"L{key[0]}", str(before), str(after),
                          f"{after - before:+d}", key[1]]))
    if rows:
        rows.sort(key=lambda entry: -entry[0])
        print(f"  top {min(top, len(rows))} line movers:")
        print_table(["line", "old", "new", "delta", "text"],
                    [row for _, row in rows[:top]])
    else:
        print("  per-line attribution identical\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    show = sub.add_parser("show", help="print one profile as text tables")
    show.add_argument("profile", nargs="?", default=None,
                      help="profile or bench/repro JSON file (optional when "
                           "--telemetry or --serve is given)")
    diff = sub.add_parser("diff", help="compare two profiles of one program")
    diff.add_argument("old", help="baseline JSON file")
    diff.add_argument("new", help="candidate JSON file")
    for command in (show, diff):
        command.add_argument("--top", type=int, default=10,
                             help="how many hottest lines to print (default 10)")
        command.add_argument("--matrix", default=None,
                             help="matrix name inside a bench/repro report")
        command.add_argument("--kernel", default=None,
                             help="kernel side: hism|crs in a bench/repro "
                                  "report, hism_sharded|crs_parallel in a "
                                  "scaling report")
    show.add_argument("--per-core", action="store_true",
                      help="with an smtu-scaling-v1 report: add a per-core "
                           "table to each rollup")
    show.add_argument("--telemetry", default=None, metavar="TELEMETRY_JSON",
                      help="smtu-telemetry-v1 file (--telemetry-json on any "
                           "bench binary / vsim_run) or a --telemetry report: "
                           "print host metric tables and the cache hit-rate "
                           "rollup (docs/TELEMETRY.md)")
    show.add_argument("--serve", default=None, metavar="SERVE_JSON",
                      help="smtu-serve-v1 file (smtu_serve --json): print the "
                           "virtual-time latency percentiles, dedup/result-"
                           "cache rollup, and shed count (docs/SERVING.md)")
    args = parser.parse_args()

    if args.command == "show":
        if args.profile is None and args.telemetry is None and \
                args.serve is None:
            fail("show needs a profile file, --telemetry=TELEMETRY_JSON, "
                 "and/or --serve=SERVE_JSON")
        if args.profile is not None:
            document = load(args.profile)
            if document.get("schema") == "smtu-scaling-v1":
                show_scaling(document, args.matrix, args.kernel, args.per_core,
                             args.top)
            else:
                for label, profile in extract_profiles(document,
                                                       args.matrix,
                                                       args.kernel):
                    show_profile(label, profile, args.top)
        if args.telemetry is not None:
            show_telemetry(load(args.telemetry))
        if args.serve is not None:
            show_serve(load(args.serve))
        return 0

    old = extract_profiles(load(args.old), args.matrix, args.kernel)
    new = extract_profiles(load(args.new), args.matrix, args.kernel)
    new_by_label = dict(new)
    for label, old_profile in old:
        if label not in new_by_label:
            fail(f"profile '{label}' missing from {args.new}")
        diff_profiles(label, old_profile, new_by_label[label], args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
