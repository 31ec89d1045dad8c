// Host-side telemetry: a process-wide registry of named counters, gauges,
// and log-bucketed latency histograms, plus RAII scoped timers (HostSpan)
// that feed them. This measures the *host* runtime — ThreadPool scheduling,
// cache hit rates, staging and per-request wall latency — never the
// simulated machine, whose counters live in vsim::RunStats/PerfCounters.
//
// Design constraints (see docs/TELEMETRY.md):
//  * Off by default, and off means *off*: no clock reads, no allocation, no
//    bucket updates, and every existing artifact (BENCH_repro.json, Chrome
//    sim traces) stays byte-identical. `--telemetry` / `--telemetry-json`
//    flip the single process-wide switch.
//  * Histograms are mergeable across threads via per-thread shards: each
//    recording thread owns a shard (relaxed-atomic bucket array, so
//    concurrent snapshots are TSan-clean) and snapshot() sums the shards.
//  * Percentiles are extracted from log-spaced buckets (4 sub-buckets per
//    power of two, <= 25% relative bucket width). p50/p90/p95/p99 return the
//    upper bound of the bucket holding the rank-th sample, clamped to the
//    exact maximum; min/max/sum/count are exact.
//  * Metric names follow `<component>.<metric>_<unit>` with unit one of
//    `_total` (counter), `_us` / `_pct` (histogram), `_peak` (gauge). The
//    reports write them under a "telemetry" key, which tools/bench_diff.py
//    drops, so telemetry values can never gate CI.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/types.hpp"

namespace smtu {
class JsonWriter;
}

namespace smtu::telemetry {

// ---- the process-wide switch ----------------------------------------------

// True when telemetry collection is on (default: off). Reads are a single
// relaxed atomic load; every instrumentation site guards on it so disabled
// runs skip clock reads entirely.
bool enabled();
void set_enabled(bool on);

// ---- metric primitives ----------------------------------------------------

// Monotonic event count. Saturates at u64 max instead of wrapping, so a
// runaway counter reads as "huge", never as "small again".
class Counter {
 public:
  void add(u64 delta = 1);
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

// High-watermark gauge: update_max keeps the largest value seen (queue
// depth peaks, concurrent-request peaks).
class Gauge {
 public:
  void update_max(u64 candidate);
  u64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<u64> value_{0};
};

// Log-bucketed histogram of non-negative integer samples (host latencies in
// microseconds, utilization percentages). Bucket 0 holds the value 0;
// values 1..3 get exact buckets; above that every power of two splits into
// 4 sub-buckets, so any bucket's bounds differ by at most 25%.
class LatencyHistogram {
 public:
  // 0, 1, 2, 3, then 4 sub-buckets for each octave [2^k, 2^(k+1)), k = 2..63.
  static constexpr usize kBucketCount = 4 + 4 * 62;

  // The bucket holding `value`; monotonic in `value`.
  static usize bucket_index(u64 value);
  // Largest value the bucket holds (inclusive). The last bucket's bound is
  // u64 max.
  static u64 bucket_upper_bound(usize index);

  LatencyHistogram() = default;
  ~LatencyHistogram();
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  // Records one sample into the calling thread's shard (creating it on
  // first use). Safe to call concurrently with snapshot().
  void record(u64 value);

  // Merged view across every thread's shard. count/min/max/sum are exact;
  // percentile(q) is the bucket-bounded estimate described above.
  struct Snapshot {
    u64 count = 0;
    u64 sum = 0;
    u64 min = 0;  // 0 when empty
    u64 max = 0;
    std::vector<u64> buckets;  // kBucketCount entries

    // q in (0, 100]. Upper bound of the bucket containing the ceil(q% *
    // count)-th sample (1-based, ascending), clamped to the exact max.
    // 0 when the histogram is empty.
    u64 percentile(double q) const;
  };
  Snapshot snapshot() const;

  // Zeroes every shard in place (shards stay allocated, so concurrent
  // recorders are never left holding a freed pointer).
  void reset();

 private:
  // Shards are indexed by a process-wide per-thread slot. More threads than
  // slots just share (every operation is atomic, so sharing only costs
  // contention, not correctness).
  static constexpr usize kMaxShards = 256;

  struct Shard {
    std::atomic<u64> buckets[kBucketCount] = {};
    std::atomic<u64> count{0};
    std::atomic<u64> sum{0};
    std::atomic<u64> min{~u64{0}};
    std::atomic<u64> max{0};
  };

  Shard& local_shard();

  std::atomic<Shard*> shards_[kMaxShards] = {};
};

// ---- the registry ---------------------------------------------------------

// Process-wide name -> metric map. Metrics are created on first use and
// never destroyed, so returned references stay valid for the process
// lifetime (reset_for_tests zeroes values, it does not invalidate them).
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  // Zeroes every metric and drops buffered host trace events. For tests.
  void reset_for_tests();

  // Writes the full "smtu-telemetry-v1" document: counters, gauges, and
  // histogram summaries (count, min/max/sum, p50/p90/p95/p99, non-empty
  // buckets), each family sorted by metric name.
  void write_json(JsonWriter& json) const;

  // Human-readable rollup of the same data (one line per metric).
  std::string summary() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  // Sorted vectors keep iteration order deterministic for JSON/summary.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<LatencyHistogram>>> histograms_;
};

// Shorthand: MetricsRegistry::instance().counter(name) etc.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
LatencyHistogram& histogram(std::string_view name);

// Writes the smtu-telemetry-v1 document for the process-wide registry.
void write_telemetry_json(JsonWriter& json);

// ---- scoped timers and host trace events ----------------------------------

// Wall-clock duration since an arbitrary process-wide origin, in
// microseconds (the host trace timebase).
u64 now_us();

// One completed host span, for Chrome trace interleaving. Host spans render
// under their own process id so simulated-unit tracks are untouched.
struct HostTraceEvent {
  std::string name;
  u32 thread = 0;  // small per-thread index, not the OS thread id
  u64 start_us = 0;
  u64 dur_us = 0;
};

// Chrome-trace pid reserved for host telemetry tracks. Simulated cores use
// pid = core + 1; this sits far above any plausible core count.
inline constexpr u64 kHostTracePid = 1000;

// When on (and telemetry is on), every HostSpan also buffers a
// HostTraceEvent; vsim::write_chrome_trace appends them under
// kHostTracePid. Off by default, so sim trace dumps stay byte-identical.
bool host_trace_enabled();
void set_host_trace_enabled(bool on);
std::vector<HostTraceEvent> host_trace_events();

// RAII scoped timer: records the enclosed duration (microseconds) into
// `histogram_name` on destruction and, when host tracing is on, buffers the
// matching trace event. A disabled-telemetry HostSpan does nothing — not
// even a clock read.
class HostSpan {
 public:
  explicit HostSpan(const char* histogram_name);
  // Pre-resolved variant for hot call sites (per-request serving paths):
  // skips the registry lookup (mutex + name search) on every destruction.
  // Metrics are never destroyed, so callers may resolve once into a
  // function-local static and reuse the reference forever. `histogram_name`
  // still labels the host-trace event.
  HostSpan(const char* histogram_name, LatencyHistogram& histogram);
  ~HostSpan();

  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  const char* name_;
  LatencyHistogram* resolved_ = nullptr;
  bool armed_;
  u64 start_us_ = 0;
};

}  // namespace smtu::telemetry
