// The batch-serving engine (docs/SERVING.md).
//
// Serving a trace has two decoupled layers:
//
//  * The *host execution* layer actually simulates kernels. In batched mode
//    it coalesces the trace's requests into their distinct (matrix, kernel,
//    config) keys — grouped by matrix so ProgramCache / MatrixStageCache /
//    SimCache reuse clusters — and fans the distinct simulations over the
//    ThreadPool; naive mode (--no-dedup --no-batching) runs one full
//    simulation per request, serially, in arrival order. Wall-clock
//    throughput (requests/sec) is measured here and is, like every host
//    timing, nondeterministic and never gated.
//
//  * The *virtual-time* layer replays the same arrivals through a
//    deterministic discrete-event model of the server: a bounded admission
//    queue (full queue => load shedding), `virtual_workers` executors,
//    in-flight dedup with fan-out, and a result cache that serves repeated
//    keys at replay cost. Service times derive from simulated cycles
//    (`cycles_per_us`), so every latency percentile in the report is a pure
//    function of (trace, options) — bit-identical across -j values, runs,
//    and machines — and is gated by tools/bench_diff.py.
#pragma once

#include <iosfwd>
#include <optional>
#include <unordered_map>
#include <vector>

#include "serve/trace.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu::serve {

struct ServeOptions {
  // Scheduler semantics (virtual and host layers).
  bool dedup = true;     // coalesce duplicate keys + result cache
  bool batching = true;  // fan host simulations over the ThreadPool
  u32 queue_depth = 64;  // bounded admission queue; arrivals past it shed
  u32 virtual_workers = 4;
  // Virtual service-time model: simulated cycles per virtual microsecond
  // (1000 = a 1 GHz machine) and the flat replay cost of a result-cache hit.
  u32 cycles_per_us = 1000;
  u32 replay_vus = 20;
  // Closed-loop mode: ignore arrival times and keep this many requests
  // outstanding, each completion immediately issuing the next one. 0 = open
  // loop (replay the recorded arrivals).
  u32 closed_loop = 0;
  // Host harness.
  u32 jobs = 0;  // ThreadPool width in batched mode (0 = hardware threads)
  std::optional<std::string> sim_cache_dir;
};

// Per-request outcome of the virtual-time model.
enum class Outcome : u32 {
  kSimulated = 0,  // ran a fresh virtual simulation on a worker
  kCoalesced = 1,  // attached to an identical in-flight simulation
  kWarm = 2,       // served from the result cache at replay cost
  kShed = 3,       // admission queue full on arrival
};
const char* outcome_name(Outcome outcome);

struct RequestOutcome {
  u32 id = 0;
  Outcome outcome = Outcome::kSimulated;
  u64 queue_vus = 0;    // admission -> service start
  u64 service_vus = 0;  // service start -> completion
  u64 total_vus = 0;    // arrival -> completion (0 for shed requests)
};

// Exact latency summary over one virtual metric: percentiles use the same
// rank convention as telemetry::LatencyHistogram (ceil(q% * count), 1-based)
// but read the exact sorted values, so no bucketing error.
struct LatencySummary {
  u64 count = 0;
  u64 min = 0;
  u64 max = 0;
  double mean = 0.0;
  u64 p50 = 0;
  u64 p90 = 0;
  u64 p95 = 0;
  u64 p99 = 0;
};
LatencySummary summarize_latencies(std::vector<u64> values);

// The deterministic virtual-time fragment of the report.
struct VirtualReport {
  u64 admitted_requests = 0;   // everything that was not shed
  u64 shed_requests = 0;
  u64 coalesced_requests = 0;  // dedup fan-out (attached to in-flight runs)
  u64 warm_requests = 0;       // result-cache replays
  u64 simulated_requests = 0;  // fresh virtual simulations
  u64 distinct_sims = 0;       // distinct keys across all requests
  u64 max_queue_depth = 0;     // admission-queue high watermark
  u64 sim_cycles = 0;          // simulated cycles actually spent (distinct)
  u64 offered_cycles = 0;      // cycles a dedup-less server would spend
  u64 first_arrival_vus = 0;
  u64 makespan_vus = 0;        // first arrival -> last completion
  LatencySummary queue;
  LatencySummary service;
  LatencySummary total;
  std::vector<RequestOutcome> outcomes;  // trace order
};

// Host-side measurements (nondeterministic; the report's skipped "host"
// section).
struct HostReport {
  u32 jobs = 1;
  u64 simulations = 0;  // machine runs actually executed on the host
  double wall_us = 0.0;
  double req_per_sec = 0.0;   // trace requests / wall seconds
  double sim_wall_us = 0.0;   // wall time inside the simulation phase
  // This serve_trace call's sim-cache lookups and stores; set only when
  // options.sim_cache_dir names a cache.
  std::optional<vsim::SimCache::Stats> sim_cache;
};

struct ServeReport {
  VirtualReport virt;
  HostReport host;
};

// Runs every distinct simulation key of `trace` on the host — grouped by
// matrix for cache reuse, fanned over the ThreadPool per options.batching —
// and returns the per-key simulated cycle counts. Deterministic in the
// trace: cycle counts are identical for every jobs value.
std::unordered_map<SimKey, u64, SimKeyHash> simulate_keys(const Trace& trace,
                                                          const ServeOptions& options);

// The virtual-time discrete-event model alone: replays `requests` against
// per-key simulated cycle counts. Pure and deterministic; unit-testable
// without running any simulation.
VirtualReport run_virtual(const std::vector<Request>& requests,
                          const std::unordered_map<SimKey, u64, SimKeyHash>& key_cycles,
                          const ServeOptions& options);

// Serves `trace` end to end: host execution (per options.batching/dedup)
// followed by the virtual-time replay. The suite set is regenerated from the
// trace's recorded seed/scale. parse_trace accepts only traces it can
// regenerate; a hand-built trace whose set, scale or matrix count is not
// one the suite has aborts.
ServeReport serve_trace(const Trace& trace, const ServeOptions& options);

// The complete "smtu-serve-v1" document. Every deterministic field lives
// under "virtual" (gated); host measurements under "host" (skipped); when
// telemetry is enabled a "telemetry" section rides along (skipped).
void write_serve_report_json(JsonWriter& json, const Trace& trace,
                             const ServeOptions& options, const ServeReport& report);

}  // namespace smtu::serve
