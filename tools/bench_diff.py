#!/usr/bin/env python3
"""Compare two smtu benchmark JSON files and flag perf regressions.

Usage:
    tools/bench_diff.py OLD.json NEW.json [--threshold=0.05] [--all]
                        [--allow-new]

Accepts any JSON the benchmark binaries emit: "smtu-bench-v1" /
"smtu-repro-v1" reports (``--json=`` on the comparison benches and
``reproduce_all``) as well as the plain table-array form the grid/ablation
benches write. Both documents are flattened to dotted-path -> number maps;
array elements carrying a "name"/"matrix" field are keyed by that name, so
reordering a suite does not produce spurious diffs.

A metric's direction decides what counts as a regression:
  * higher-is-better (key contains "speedup" or "utilization", or the
    serve reports' virtual-throughput "krps" leaves):
        regression when NEW < OLD * (1 - threshold)
  * lower-is-better (key contains "cycles", or ends in "_vus" — the serve
    reports' deterministic virtual-time latencies, docs/SERVING.md):
        regression when NEW > OLD * (1 + threshold)
  * exact (deterministic scheduler counters such as shed_requests /
    coalesced_requests): any difference at all fails, threshold ignored
  * anything else (sizes, counts, configuration echoes) is reported with
    --all but never fails the run.

Host-timing keys are ignored entirely: any key containing "wall_ms" (the
per-matrix and harness wall-time measurements) or "per_sec" (host
throughput rates such as the serve reports' req_per_sec) is
nondeterministic by nature, and "jobs"/"harness" only describe how the run
was executed. The "host" section (program/stage/sim cache hit counters —
HACKING.md "Host performance") likewise depends on process history, not on
the simulated machine. The "telemetry" section (docs/TELEMETRY.md) is
skipped wholesale for the same reason — it only exists on --telemetry
runs, so a telemetry-on report diffs clean at threshold 0 against a
telemetry-off one — and, defense in depth, telemetry
metric names carry unit suffixes ("_us", "_pct", "_peak", "_total") that
are skipped wherever they appear, so stray latency/hit-count leaves can
never gate CI. None of them can gate, appear as [new]/[gone], or show
under --all.

Schema drift is gated, not just reported: a metric present in OLD but
missing from NEW ([gone]) always fails — a silently vanished counter would
otherwise hide a regression forever. Metrics only in NEW ([new]) also fail
unless --allow-new is passed, the intended escape hatch for PRs that add
counters (e.g. a new "profile" section) and update the baseline in the same
change.

Exit status: 0 = no regression, 1 = at least one regression or gated
schema drift, 2 = usage / unreadable input. Improvements are reported but
never fail.
"""

import argparse
import json
import sys

SKIPPED_KEYS = {"schema", "bench", "seed", "scale", "jobs", "harness", "host",
                "telemetry"}

# Any key containing one of these fragments is host-timing noise, never a
# simulated metric; skipped at flatten time so it cannot gate or diff.
# "per_sec" covers host throughput rates such as the serve reports'
# req_per_sec;
# "wall_us" covers the serve reports' wall_us/sim_wall_us wall-clock
# measurements (also caught by the "_us" suffix rule — defense in depth,
# since these must never gate a "smtu-serve-v1" diff at threshold 0).
TIMING_KEY_FRAGMENTS = ("wall_ms", "wall_us", "per_sec")

# Telemetry metric names end in a unit suffix (docs/TELEMETRY.md naming
# scheme). Suffix (not substring) matched so simulated byte counters such as
# "mem_contiguous_bytes" / "storage_bytes" keep gating.
TELEMETRY_KEY_SUFFIXES = ("_us", "_pct", "_peak", "_total")


def skipped_key(key):
    """True for keys that must never gate: run descriptors, host timing,
    and telemetry metric names (suffix-matched by unit)."""
    if key in SKIPPED_KEYS:
        return True
    if any(fragment in key for fragment in TIMING_KEY_FRAGMENTS):
        return True
    return key.endswith(TELEMETRY_KEY_SUFFIXES)


def flatten(value, prefix, out):
    """Collect numeric leaves of `value` into out[dotted-path]."""
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        out[prefix] = float(value)
        return
    if isinstance(value, dict):
        for key, child in value.items():
            if skipped_key(key):
                continue
            flatten(child, f"{prefix}.{key}" if prefix else key, out)
        return
    if isinstance(value, list):
        for index, child in enumerate(value):
            label = str(index)
            if isinstance(child, dict):
                name = child.get("name") or child.get("matrix")
                if isinstance(name, str):
                    label = name
            flatten(child, f"{prefix}[{label}]", out)


# Deterministic scheduler counters from the serve reports' "virtual"
# section (docs/SERVING.md determinism contract): pure functions of
# (trace, options), so any drift at all is a regression — no threshold.
EXACT_LEAVES = ("shed_requests", "coalesced_requests", "warm_requests",
                "simulated_requests", "admitted_requests", "distinct_sims",
                "max_queue_depth")


def direction(path):
    """'up' = higher is better, 'down' = lower is better,
    'exact' = must match bit for bit, None = neutral."""
    leaf = path.rsplit(".", 1)[-1]
    if "speedup" in leaf or "utilization" in leaf:
        return "up"
    if "cycles" in leaf:
        return "down"
    # Virtual-time serving metrics: latencies/makespans in virtual
    # microseconds ("_vus" — deliberately not "_us", which the telemetry
    # suffix rule skips) are lower-is-better; virtual throughput is
    # higher-is-better. Both are deterministic (docs/SERVING.md).
    if leaf.endswith("_vus"):
        return "down"
    if "krps" in leaf:
        return "up"
    if leaf in EXACT_LEAVES:
        return "exact"
    return None


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"bench_diff: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline JSON file")
    parser.add_argument("new", help="candidate JSON file")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="relative regression tolerance (default 0.05 = 5%%)")
    parser.add_argument("--all", action="store_true",
                        help="also print unchanged and neutral metrics")
    parser.add_argument("--allow-new", action="store_true",
                        help="do not fail on metrics present only in NEW "
                             "(use when a PR intentionally adds counters)")
    args = parser.parse_args()

    old_values, new_values = {}, {}
    flatten(load(args.old), "", old_values)
    flatten(load(args.new), "", new_values)

    only_old = sorted(set(old_values) - set(new_values))
    only_new = sorted(set(new_values) - set(old_values))
    for path in only_old:
        print(f"  [gone]    {path} (was {old_values[path]:g})")
    for path in only_new:
        print(f"  [new]     {path} = {new_values[path]:g}")

    regressions = improvements = compared = 0
    for path in sorted(set(old_values) & set(new_values)):
        old, new = old_values[path], new_values[path]
        sense = direction(path)
        if sense is None:
            if args.all and old != new:
                print(f"  [info]    {path}: {old:g} -> {new:g}")
            continue
        compared += 1
        if old == 0.0:
            delta = 0.0 if new == 0.0 else float("inf")
        else:
            delta = (new - old) / old
        if sense == "exact":
            if old != new:
                regressions += 1
                print(f"  [REGRESS] {path}: {old:g} -> {new:g} "
                      f"(deterministic counter must match exactly)")
            elif args.all:
                print(f"  [ok]      {path}: {old:g} (exact)")
            continue
        worse = -delta if sense == "up" else delta
        if worse > args.threshold:
            regressions += 1
            print(f"  [REGRESS] {path}: {old:g} -> {new:g} "
                  f"({delta:+.1%}, {'lower' if sense == 'up' else 'higher'} is worse)")
        elif worse < -args.threshold:
            improvements += 1
            print(f"  [better]  {path}: {old:g} -> {new:g} ({delta:+.1%})")
        elif args.all and old != new:
            print(f"  [ok]      {path}: {old:g} -> {new:g} ({delta:+.1%})")

    gated_new = 0 if args.allow_new else len(only_new)
    print(f"bench_diff: {compared} metrics compared, {regressions} regression(s), "
          f"{improvements} improvement(s), threshold {args.threshold:.0%} "
          f"({len(only_old)} gone, {len(only_new)} new"
          f"{', allowed' if args.allow_new and only_new else ''})")
    if only_old:
        print("bench_diff: FAIL — metrics vanished from NEW (see [gone] above)")
    if gated_new:
        print("bench_diff: FAIL — NEW introduces metrics absent from OLD; "
              "pass --allow-new if this is intentional")
    return 1 if regressions or only_old or gated_new else 0


if __name__ == "__main__":
    sys.exit(main())
