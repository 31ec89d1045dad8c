#!/usr/bin/env python3
"""Assert that reproduce_all is deterministic across --jobs values.

Usage:
    tools/check_repro_determinism.py PATH/TO/reproduce_all [--scale=0.02]
                                     [--jobs A B ...] [--profile]
                                     [--sim-cache] [--telemetry]

Runs the binary once per jobs value (default: 1 and 4) and asserts the
smtu-repro-v1 JSON artifacts are identical under bench_diff.py's rule: the
host keys (harness, host, telemetry, wall_ms) are dropped and everything
else — cycle counts, speedups, utilization grids, full RunStats — must
match exactly; a single differing value fails the check.

--profile additionally passes --profile to every run, so each per-matrix
record carries a full smtu-profile-v1 section (cycle attribution, stall
taxonomy, per-line counters — docs/PROFILING.md) that is held to the same
bit-identical standard.

--sim-cache additionally runs the binary twice more with a shared
--sim-cache directory (a cold run populating it, then a warm run replaying
from it) and holds both artifacts to the same standard: caching must not
change a single simulated number (HACKING.md "Host performance").

--telemetry additionally runs the binary once more with host telemetry
collection on (docs/TELEMETRY.md) and asserts the artifact is bit-identical
to the telemetry-off reference after the strip — i.e. instrumentation only
*adds* the dropped "telemetry" section and never perturbs a simulated
value.

--serve SMTU_SERVE TRACE additionally replays the given smtu-trace-v1 file
through the serving driver once per jobs value and holds the smtu-serve-v1
reports to the same standard: everything outside the "host"/"telemetry"
sections — the whole "virtual" section, every _vus latency, every
scheduler counter — must be bit-identical across -j values
(docs/SERVING.md determinism contract).

Exit status: 0 identical, 1 mismatch, 2 usage/run failure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from bench_diff import differences, strip_host


def run_once(binary, scale, jobs, tmp, profile=False, sim_cache=None, tag="",
             telemetry=False):
    report = os.path.join(tmp, f"report_j{jobs}{tag}.md")
    artifact = os.path.join(tmp, f"repro_j{jobs}{tag}.json")
    command = [binary, f"--scale={scale}", f"--jobs={jobs}",
               f"--out={report}", f"--json={artifact}"]
    if profile:
        command.append("--profile")
    if sim_cache:
        command.append(f"--sim-cache={sim_cache}")
    if telemetry:
        command.append("--telemetry")
    result = subprocess.run(command, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        print(f"check_repro_determinism: {' '.join(command)} failed "
              f"(exit {result.returncode}):\n{result.stderr}", file=sys.stderr)
        sys.exit(2)
    with open(artifact, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_serve(binary, trace, jobs, tmp):
    artifact = os.path.join(tmp, f"serve_j{jobs}.json")
    command = [binary, f"--replay={trace}", f"--jobs={jobs}",
               f"--json={artifact}"]
    result = subprocess.run(command, capture_output=True, text=True, check=False)
    if result.returncode != 0:
        print(f"check_repro_determinism: {' '.join(command)} failed "
              f"(exit {result.returncode}):\n{result.stderr}", file=sys.stderr)
        sys.exit(2)
    with open(artifact, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binary", help="path to the reproduce_all binary")
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 4])
    parser.add_argument("--profile", action="store_true",
                        help="run with --profile and hold the per-matrix "
                             "profile sections to the same determinism bar")
    parser.add_argument("--sim-cache", action="store_true",
                        help="also run cold+warm with a shared --sim-cache "
                             "directory and assert both artifacts identical "
                             "to the uncached reference")
    parser.add_argument("--telemetry", action="store_true",
                        help="also run with --telemetry and assert the "
                             "artifact identical to the telemetry-off "
                             "reference (instrumentation must not perturb "
                             "any simulated metric)")
    parser.add_argument("--serve", nargs=2, metavar=("SMTU_SERVE", "TRACE"),
                        help="also replay TRACE through the smtu_serve binary "
                             "once per jobs value and assert the smtu-serve-v1 "
                             "reports' deterministic sections are identical")
    args = parser.parse_args()

    if len(args.jobs) < 2:
        print("check_repro_determinism: need at least two --jobs values",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory() as tmp:
        docs = {jobs: run_once(args.binary, args.scale, jobs, tmp, args.profile)
                for jobs in args.jobs}
        cached_docs = {}
        if args.sim_cache:
            cache_dir = os.path.join(tmp, "simcache")
            for tag in ("cold", "warm"):
                cached_docs[tag] = run_once(args.binary, args.scale, args.jobs[0],
                                            tmp, args.profile, cache_dir,
                                            f"_{tag}")
        telemetry_doc = None
        if args.telemetry:
            telemetry_doc = run_once(args.binary, args.scale, args.jobs[0], tmp,
                                     args.profile, tag="_telemetry",
                                     telemetry=True)
        serve_docs = {}
        if args.serve:
            serve_binary, serve_trace = args.serve
            serve_docs = {jobs: run_serve(serve_binary, serve_trace, jobs, tmp)
                          for jobs in args.jobs}

    reference_jobs = args.jobs[0]
    reference = docs[reference_jobs]
    comparisons = [(f"-j{jobs} report", f"-j{reference_jobs}", reference, docs[jobs])
                   for jobs in args.jobs[1:]]
    comparisons += [(f"--sim-cache {tag} report", f"uncached -j{reference_jobs}",
                     reference, doc) for tag, doc in cached_docs.items()]
    if telemetry_doc is not None:
        if "telemetry" not in telemetry_doc:
            print("check_repro_determinism: --telemetry run is missing its "
                  "\"telemetry\" section", file=sys.stderr)
            return 1
        comparisons.append(("--telemetry report", f"telemetry-off -j{reference_jobs}",
                            reference, telemetry_doc))
    comparisons += [(f"smtu_serve -j{jobs} report", f"-j{reference_jobs}",
                     serve_docs[reference_jobs], serve_docs[jobs])
                    for jobs in args.jobs[1:] if serve_docs]
    for label, against, expected, actual in comparisons:
        found = list(differences(strip_host(expected), strip_host(actual)))
        for line in found:
            print(f"check_repro_determinism: {label} differs from {against} at {line}",
                  file=sys.stderr)
        if found:
            return 1
        print(f"check_repro_determinism: {label} identical to {against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
