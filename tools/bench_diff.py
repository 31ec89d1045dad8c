#!/usr/bin/env python3
"""Require a simulated report to match its baseline exactly.

Usage:
    tools/bench_diff.py OLD.json NEW.json

Accepts any JSON the smtu binaries write: the "smtu-bench-v1" /
"smtu-repro-v1" reports (``--json=`` on the comparison benches and
``reproduce_all``), the extension reports, the smtu_serve and serve_sweep
reports, and the plain table-array form of the grid/ablation benches.

The simulator is deterministic, so there is one rule. Host measurements
vary with the machine, its load and the process history, and every writer
puts them under one of four keys:

  harness    worker count and total wall time of a bench run
  host       cache counters and wall-clock rates
  telemetry  the --telemetry section (docs/TELEMETRY.md)
  wall_ms    the wall time of one per-matrix record

Those keys are dropped, at any depth, from both documents. Everything else
must be identical: the same keys, arrays of the same length in the same
order, and equal values of the same JSON type. A change that moves a
simulated value on purpose regenerates the baseline in the same commit.

Every differing path is printed. Exit status: 0 = identical,
1 = at least one difference, 2 = usage error or unreadable input.
"""

import argparse
import json
import sys

HOST_KEYS = frozenset({"harness", "host", "telemetry", "wall_ms"})


def strip_host(value):
    """`value` without the host keys, at any depth."""
    if isinstance(value, dict):
        return {key: strip_host(child) for key, child in value.items()
                if key not in HOST_KEYS}
    if isinstance(value, list):
        return [strip_host(child) for child in value]
    return value


def json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def differences(old, new, path="$"):
    """Yield one line per difference between two stripped documents."""
    if json_type(old) != json_type(new):
        yield f"{path}: {old!r} -> {new!r}"
    elif isinstance(old, dict):
        for key in old:
            if key not in new:
                yield f"{path}.{key}: gone from NEW"
            else:
                yield from differences(old[key], new[key], f"{path}.{key}")
        for key in new:
            if key not in old:
                yield f"{path}.{key}: new in NEW"
    elif isinstance(old, list):
        if len(old) != len(new):
            yield f"{path}: length {len(old)} -> {len(new)}"
        for index, (x, y) in enumerate(zip(old, new)):
            yield from differences(x, y, f"{path}[{index}]")
    elif old != new:
        yield f"{path}: {old!r} -> {new!r}"


def count_values(value):
    """Number of scalar leaves in `value`."""
    if isinstance(value, dict):
        return sum(count_values(child) for child in value.values())
    if isinstance(value, list):
        return sum(count_values(child) for child in value)
    return 1


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        print(f"bench_diff: cannot read {path}: {error}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline JSON file")
    parser.add_argument("new", help="candidate JSON file")
    args = parser.parse_args()
    old = strip_host(load(args.old))
    new = strip_host(load(args.new))
    found = 0
    for line in differences(old, new):
        print(f"  [DIFF] {line}")
        found += 1
    compared = count_values(old)
    if found:
        print(f"bench_diff: FAIL — {found} difference(s) over {compared} baseline values")
        return 1
    print(f"bench_diff: all {compared} values match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
