// Machine-readable exports of the simulator's measurement types.
//
// Two consumers drive the shapes here:
//  * per-PR perf tracking — RunStats as a flat JSON object with stable keys
//    (`tools/bench_diff.py` compares these across benchmark runs);
//  * interactive timing inspection — ExecutionTrace as Chrome trace-event
//    JSON (the `chrome://tracing` / Perfetto format), one track per
//    functional unit so chaining overlap is directly visible.
//
// Field semantics are documented in docs/TRACE.md; the JSON keys mirror the
// RunStats member names one-to-one so the schema never drifts from the code.
#pragma once

#include <ostream>
#include <string>

#include "support/json.hpp"
#include "vsim/machine.hpp"
#include "vsim/profiler.hpp"
#include "vsim/trace.hpp"

namespace smtu::vsim {

// Writes `stats` as one JSON object: every RunStats counter under its member
// name. Usable mid-document (the caller owns surrounding structure).
void write_run_stats_json(JsonWriter& json, const RunStats& stats);

// Rebuilds RunStats from a parsed object produced by write_run_stats_json.
// Returns nullopt if any counter key is missing or not an unsigned integer.
std::optional<RunStats> run_stats_from_json(const JsonValue& value);

// Writes the machine configuration knobs that shape timing, so exported
// measurements are self-describing.
void write_machine_config_json(JsonWriter& json, const MachineConfig& config);

// Chrome trace-event export. Produces a complete JSON object document:
//   {"traceEvents": [...], "displayTimeUnit": "ns",
//    "trace": {"events": N, "capacity": C, "dropped": D}, "dropped": D}
// with one metadata-named thread per unit track (kUnitTracks) and one
// complete "X" event per record (ts = start cycle, dur = last - start,
// clamped to at least 1 so zero-length scalar ops stay visible).
// `process_name` labels the single process track group. The "trace" object
// makes truncation machine-detectable (dropped > 0); the top-level
// "dropped" key is kept for backwards compatibility.
void write_chrome_trace(std::ostream& out, const ExecutionTrace& trace,
                        const std::string& process_name = "vsim");

// Writes a profiler's counters as one "smtu-profile-v1" JSON object (schema
// reference: docs/PROFILING.md). Usable mid-document, like
// write_run_stats_json — the bench harness embeds it as a "profile" section
// of smtu-bench-v1 records.
void write_profile_json(JsonWriter& json, const PerfCounters& profile);

// Writes a complete speedscope (https://www.speedscope.app) document for
// interactive flamegraph inspection: one "sampled" profile whose stacks are
// region > source line > attribution bucket, weighted by attributed cycles.
void write_speedscope_profile(std::ostream& out, const PerfCounters& profile,
                              const std::string& name = "vsim");

}  // namespace smtu::vsim
