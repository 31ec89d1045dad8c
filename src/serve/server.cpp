#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <queue>
#include <unordered_set>

#include "kernels/staging.hpp"
#include "kernels/transpose_sim.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "vsim/program_cache.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu::serve {
namespace {

double elapsed_us(std::chrono::steady_clock::time_point since) {
  const auto delta = std::chrono::steady_clock::now() - since;
  return std::chrono::duration<double, std::micro>(delta).count();
}

// ---- virtual-time discrete-event model -------------------------------------

// One virtual simulation in flight: every attached request completes when it
// does. `seq` orders equal-time completions deterministically (start order).
struct Run {
  SimKey key;
  u64 completion_vus = 0;
  u64 seq = 0;
};

// In-flight slot: where (and as which run) a key is currently executing.
struct Flight {
  u64 completion_vus = 0;
  u64 seq = 0;
};

struct RunLater {
  bool operator()(const Run& a, const Run& b) const {
    return a.completion_vus != b.completion_vus ? a.completion_vus > b.completion_vus
                                                : a.seq > b.seq;
  }
};

// The scheduler state machine shared by the open- and closed-loop drivers.
class VirtualScheduler {
 public:
  VirtualScheduler(const std::vector<Request>& requests,
                   const std::unordered_map<SimKey, u64, SimKeyHash>& key_cycles,
                   const ServeOptions& options)
      : requests_(requests), key_cycles_(key_cycles), options_(options) {
    report_.outcomes.resize(requests.size());
    arrival_.resize(requests.size(), 0);
  }

  VirtualReport run() {
    SMTU_CHECK_MSG(options_.virtual_workers >= 1, "the virtual scheduler needs a worker");
    std::unordered_set<SimKey, SimKeyHash> distinct;
    for (const Request& request : requests_) {
      distinct.insert(key_of(request));
      report_.offered_cycles += cycles_of(key_of(request));
    }
    report_.distinct_sims = distinct.size();

    if (options_.closed_loop > 0) {
      run_closed_loop();
    } else {
      run_open_loop();
    }
    finish();
    return std::move(report_);
  }

 private:
  u64 cycles_of(const SimKey& key) const {
    const auto it = key_cycles_.find(key);
    SMTU_CHECK_MSG(it != key_cycles_.end(), "virtual replay is missing a key's cycle count");
    return it->second;
  }

  u64 fresh_service_vus(const SimKey& key) const {
    return std::max<u64>(1, cycles_of(key) / std::max<u32>(1, options_.cycles_per_us));
  }

  void run_open_loop() {
    report_.first_arrival_vus = requests_.empty() ? 0 : requests_.front().arrival_us;
    for (usize index = 0; index < requests_.size(); ++index) {
      const u64 t = requests_[index].arrival_us;
      arrival_[index] = t;
      drain_until(t);
      arrive(index, t);
    }
    drain_until(~u64{0});
  }

  void run_closed_loop() {
    // `closed_loop` clients, each issuing its next request as soon as the
    // previous one completes. Arrival times are ignored and admission never
    // sheds: the loop itself bounds the outstanding work.
    report_.first_arrival_vus = 0;
    usize issued = 0;
    const usize initial = std::min<usize>(options_.closed_loop, requests_.size());
    for (; issued < initial; ++issued) {
      arrival_[issued] = 0;
      arrive(issued, 0);
    }
    while (!completions_.empty()) {
      const u64 completed = drain_one();
      for (u64 i = 0; i < completed && issued < requests_.size(); ++i, ++issued) {
        arrival_[issued] = last_drain_vus_;
        arrive(issued, last_drain_vus_);
      }
    }
  }

  void arrive(usize index, u64 t) {
    const SimKey key = key_of(requests_[index]);
    if (options_.dedup) {
      const auto it = in_flight_.find(key);
      if (it != in_flight_.end()) {
        attach(index, t, it->second);
        return;
      }
    }
    if (busy_workers_ < options_.virtual_workers) {
      start(index, t);
    } else if (options_.closed_loop > 0 || pending_.size() < options_.queue_depth) {
      pending_.push_back(index);
      report_.max_queue_depth = std::max<u64>(report_.max_queue_depth, pending_.size());
    } else {
      report_.outcomes[index] = RequestOutcome{requests_[index].id, Outcome::kShed, 0, 0, 0};
      ++report_.shed_requests;
    }
  }

  // Joins the in-flight run; no worker used. Fan-out is tallied per run so
  // the closed-loop driver can issue one follow-up per finished request.
  void attach(usize index, u64 t, const Flight& flight) {
    ++report_.coalesced_requests;
    ++attach_counts_[flight.seq];
    record(index, Outcome::kCoalesced, t, flight.completion_vus);
  }

  // Occupies a worker from time `t`. Warm keys (already completed once)
  // replay from the result cache at flat cost; fresh keys run the full
  // simulated service time.
  void start(usize index, u64 t) {
    const SimKey key = key_of(requests_[index]);
    Outcome outcome;
    u64 service;
    if (options_.dedup && completed_.count(key) != 0) {
      outcome = Outcome::kWarm;
      service = std::max<u64>(1, options_.replay_vus);
      ++report_.warm_requests;
    } else {
      outcome = Outcome::kSimulated;
      service = fresh_service_vus(key);
      ++report_.simulated_requests;
      report_.sim_cycles += cycles_of(key);
    }
    const u64 completion = t + service;
    const u64 seq = next_seq_++;
    ++busy_workers_;
    in_flight_[key] = Flight{completion, seq};
    completions_.push(Run{key, completion, seq});
    record(index, outcome, t, completion);
  }

  void record(usize index, Outcome outcome, u64 start_vus, u64 completion_vus) {
    RequestOutcome& out = report_.outcomes[index];
    out.id = requests_[index].id;
    out.outcome = outcome;
    out.queue_vus = start_vus - arrival_[index];
    out.service_vus = completion_vus - start_vus;
    out.total_vus = completion_vus - arrival_[index];
    last_completion_vus_ = std::max(last_completion_vus_, completion_vus);
  }

  // Processes the earliest completion event: frees its worker, publishes the
  // key to the result cache, and admits queued requests while workers are
  // free (queued duplicates attach instead of occupying a worker). Returns
  // how many requests finished at that instant (the run's fan-out is
  // accounted where requests attach, so each run completes exactly one
  // worker but possibly many requests — callers in closed-loop mode issue
  // that many follow-ups).
  u64 drain_one() {
    const Run run = completions_.top();
    completions_.pop();
    last_drain_vus_ = run.completion_vus;
    // Erase only if this run still owns the in-flight slot (a warm rerun of
    // the same key may have started after an earlier run completed).
    const auto it = in_flight_.find(run.key);
    if (it != in_flight_.end() && it->second.seq == run.seq) in_flight_.erase(it);
    completed_.insert(run.key);
    --busy_workers_;

    u64 finished = 1;
    if (const auto attached = attach_counts_.find(run.seq); attached != attach_counts_.end()) {
      finished += attached->second;
      attach_counts_.erase(attached);
    }

    while (busy_workers_ < options_.virtual_workers && !pending_.empty()) {
      const usize index = pending_.front();
      pending_.pop_front();
      const SimKey key = key_of(requests_[index]);
      if (options_.dedup) {
        const auto flight = in_flight_.find(key);
        if (flight != in_flight_.end()) {
          attach(index, run.completion_vus, flight->second);
          continue;  // no worker consumed; keep admitting
        }
      }
      start(index, run.completion_vus);
    }
    return finished;
  }

  void drain_until(u64 t) {
    while (!completions_.empty() && completions_.top().completion_vus <= t) drain_one();
  }

  void finish() {
    SMTU_CHECK(completions_.empty() && pending_.empty() && busy_workers_ == 0);
    report_.admitted_requests = requests_.size() - report_.shed_requests;
    report_.makespan_vus = last_completion_vus_ > report_.first_arrival_vus
                               ? last_completion_vus_ - report_.first_arrival_vus
                               : 0;
    std::vector<u64> queue_samples, service_samples, total_samples;
    queue_samples.reserve(report_.admitted_requests);
    service_samples.reserve(report_.admitted_requests);
    total_samples.reserve(report_.admitted_requests);
    for (const RequestOutcome& out : report_.outcomes) {
      if (out.outcome == Outcome::kShed) continue;
      queue_samples.push_back(out.queue_vus);
      service_samples.push_back(out.service_vus);
      total_samples.push_back(out.total_vus);
    }
    report_.queue = summarize_latencies(std::move(queue_samples));
    report_.service = summarize_latencies(std::move(service_samples));
    report_.total = summarize_latencies(std::move(total_samples));
  }

  const std::vector<Request>& requests_;
  const std::unordered_map<SimKey, u64, SimKeyHash>& key_cycles_;
  const ServeOptions& options_;
  VirtualReport report_;
  std::vector<u64> arrival_;  // effective arrival (issue time in closed loop)

  std::priority_queue<Run, std::vector<Run>, RunLater> completions_;
  std::unordered_map<SimKey, Flight, SimKeyHash> in_flight_;
  std::unordered_map<u64, u64> attach_counts_;  // run seq -> attached fan-out
  std::unordered_set<SimKey, SimKeyHash> completed_;
  std::deque<usize> pending_;
  u32 busy_workers_ = 0;
  u64 next_seq_ = 0;
  u64 last_completion_vus_ = 0;
  u64 last_drain_vus_ = 0;
};

// ---- host execution --------------------------------------------------------

// One full simulation of `key` on this thread; returns its cycle count.
// Stage and program lookups go through the process-wide caches, and a
// non-null sim_cache replays previously seen runs (opt-in, like the benches).
u64 simulate_key(const SimKey& key, const Trace& trace,
                 const std::vector<suite::SuiteMatrix>& set, vsim::SimCache* sim_cache) {
  static telemetry::LatencyHistogram& sim_wall = telemetry::histogram("serve.sim_wall_us");
  telemetry::HostSpan span("serve.sim_wall_us", sim_wall);
  const vsim::MachineConfig config = machine_config_for(trace.configs[key.config]);
  const kernels::TransposeProgram program = key.kernel == Kernel::kHism
                                                ? kernels::hism_transpose_program()
                                                : kernels::crs_transpose_program(config.section);
  return kernels::simulate_transpose(program, set[key.matrix].matrix, config,
                                     /*verify=*/false, /*profile=*/false, sim_cache)
      .stats.cycles;
}

std::unordered_map<SimKey, u64, SimKeyHash> simulate_distinct(
    const Trace& trace, const std::vector<suite::SuiteMatrix>& set, vsim::SimCache* sim_cache,
    const ServeOptions& options) {
  // Distinct keys only, grouped by matrix (then kernel, then config) so
  // consecutive simulations share staged images and programs; the shared
  // result fans out to every duplicate request.
  std::vector<SimKey> keys;
  std::unordered_set<SimKey, SimKeyHash> seen;
  for (const Request& request : trace.requests) {
    if (seen.insert(key_of(request)).second) keys.push_back(key_of(request));
  }
  std::stable_sort(keys.begin(), keys.end(), [](const SimKey& a, const SimKey& b) {
    if (a.matrix != b.matrix) return a.matrix < b.matrix;
    if (a.kernel != b.kernel) return a.kernel < b.kernel;
    return a.config < b.config;
  });
  ThreadPool pool(options.batching ? options.jobs : 1);
  const std::vector<u64> cycles = parallel_map(pool, keys, [&](const SimKey& key) {
    return simulate_key(key, trace, set, sim_cache);
  });
  std::unordered_map<SimKey, u64, SimKeyHash> key_cycles;
  key_cycles.reserve(keys.size());
  for (usize i = 0; i < keys.size(); ++i) key_cycles[keys[i]] = cycles[i];
  return key_cycles;
}

}  // namespace

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kSimulated:
      return "simulated";
    case Outcome::kCoalesced:
      return "coalesced";
    case Outcome::kWarm:
      return "warm";
    case Outcome::kShed:
      return "shed";
  }
  return "?";
}

LatencySummary summarize_latencies(std::vector<u64> values) {
  LatencySummary summary;
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.count = values.size();
  summary.min = values.front();
  summary.max = values.back();
  u64 sum = 0;
  for (const u64 value : values) sum += value;
  summary.mean = static_cast<double>(sum) / static_cast<double>(values.size());
  // Same rank convention as telemetry::LatencyHistogram::Snapshot::percentile
  // (ceil(q% * count), 1-based), but over the exact sorted samples.
  const auto at = [&values](double q) {
    const u64 count = values.size();
    u64 rank = static_cast<u64>((q / 100.0) * static_cast<double>(count));
    if (static_cast<double>(rank) * 100.0 < q * static_cast<double>(count)) ++rank;
    rank = std::max<u64>(1, std::min<u64>(rank, count));
    return values[rank - 1];
  };
  summary.p50 = at(50.0);
  summary.p90 = at(90.0);
  summary.p95 = at(95.0);
  summary.p99 = at(99.0);
  return summary;
}

VirtualReport run_virtual(const std::vector<Request>& requests,
                          const std::unordered_map<SimKey, u64, SimKeyHash>& key_cycles,
                          const ServeOptions& options) {
  return VirtualScheduler(requests, key_cycles, options).run();
}

std::unordered_map<SimKey, u64, SimKeyHash> simulate_keys(const Trace& trace,
                                                          const ServeOptions& options) {
  const auto set = suite::build_dsab_set(trace.set, trace.suite);
  SMTU_CHECK_MSG(set.size() == trace.matrix_count,
                 "trace matrix count does not match the regenerated suite set");
  return simulate_distinct(trace, set, vsim::sim_cache_for(options.sim_cache_dir), options);
}

ServeReport serve_trace(const Trace& trace, const ServeOptions& options) {
  const auto set = suite::build_dsab_set(trace.set, trace.suite);
  SMTU_CHECK_MSG(set.size() == trace.matrix_count,
                 "trace matrix count does not match the regenerated suite set");
  vsim::SimCache* sim_cache = vsim::sim_cache_for(options.sim_cache_dir);
  const vsim::SimCache::Stats cache_before =
      sim_cache != nullptr ? sim_cache->stats() : vsim::SimCache::Stats{};

  ServeReport report;
  const auto started = std::chrono::steady_clock::now();
  std::unordered_map<SimKey, u64, SimKeyHash> key_cycles;

  if (telemetry::enabled()) {
    telemetry::counter("serve.requests_total").add(trace.requests.size());
  }

  const auto sim_started = std::chrono::steady_clock::now();
  if (options.dedup) {
    key_cycles = simulate_distinct(trace, set, sim_cache, options);
    report.host.simulations = key_cycles.size();
    if (telemetry::enabled()) {
      telemetry::counter("serve.dedup_coalesced_total")
          .add(trace.requests.size() - key_cycles.size());
    }
  } else {
    // The naive loop: one full simulation per request. With batching the
    // requests still fan over the pool; without it (the HOST_serve_naive
    // baseline) they run serially in arrival order.
    ThreadPool pool(options.batching ? options.jobs : 1);
    const std::vector<u64> cycles =
        parallel_map(pool, trace.requests, [&](const Request& request) {
          return simulate_key(key_of(request), trace, set, sim_cache);
        });
    for (usize i = 0; i < trace.requests.size(); ++i) {
      key_cycles[key_of(trace.requests[i])] = cycles[i];
    }
    report.host.simulations = trace.requests.size();
  }
  report.host.sim_wall_us = elapsed_us(sim_started);
  if (sim_cache != nullptr) {
    const vsim::SimCache::Stats after = sim_cache->stats();
    report.host.sim_cache = vsim::SimCache::Stats{after.hits - cache_before.hits,
                                                  after.misses - cache_before.misses,
                                                  after.stores - cache_before.stores};
  }

  report.virt = run_virtual(trace.requests, key_cycles, options);

  report.host.jobs = options.batching ? resolve_jobs(options.jobs) : 1;
  report.host.wall_us = elapsed_us(started);
  report.host.req_per_sec =
      report.host.wall_us > 0.0
          ? static_cast<double>(trace.requests.size()) * 1e6 / report.host.wall_us
          : 0.0;
  if (telemetry::enabled()) {
    telemetry::counter("serve.shed_total").add(report.virt.shed_requests);
    telemetry::counter("serve.warm_hits_total").add(report.virt.warm_requests);
    telemetry::gauge("serve.queue_depth_peak").update_max(report.virt.max_queue_depth);
  }
  return report;
}

namespace {

void write_latency_json(JsonWriter& json, const char* prefix, const LatencySummary& summary) {
  const std::string name(prefix);
  json.key(name + "_min_vus");
  json.value(summary.min);
  json.key(name + "_mean_vus");
  json.value(summary.mean);
  json.key(name + "_p50_vus");
  json.value(summary.p50);
  json.key(name + "_p90_vus");
  json.value(summary.p90);
  json.key(name + "_p95_vus");
  json.value(summary.p95);
  json.key(name + "_p99_vus");
  json.value(summary.p99);
  json.key(name + "_max_vus");
  json.value(summary.max);
}

}  // namespace

void write_serve_report_json(JsonWriter& json, const Trace& trace,
                             const ServeOptions& options, const ServeReport& report) {
  json.begin_object();
  json.key("schema");
  json.value("smtu-serve-v1");
  json.key("trace");
  json.begin_object();
  json.key("seed");
  json.value(trace.seed);
  json.key("set");
  json.value(trace.set);
  json.key("scale");
  json.value(trace.suite.scale);
  json.key("requests");
  json.value(static_cast<u64>(trace.requests.size()));
  json.key("arrival_mode");
  json.value(trace.arrival.mode);
  json.key("zipf_skew");
  json.value(trace.arrival.zipf_skew);
  json.key("rate_rps");
  json.value(trace.arrival.rate_rps);
  json.end_object();
  json.key("options");
  json.begin_object();
  json.key("dedup");
  json.value(options.dedup);
  json.key("batching");
  json.value(options.batching);
  json.key("queue_depth");
  json.value(static_cast<u64>(options.queue_depth));
  json.key("virtual_workers");
  json.value(static_cast<u64>(options.virtual_workers));
  json.key("cycles_per_us");
  json.value(static_cast<u64>(options.cycles_per_us));
  json.key("replay_vus");
  json.value(static_cast<u64>(options.replay_vus));
  json.key("closed_loop");
  json.value(static_cast<u64>(options.closed_loop));
  json.end_object();
  json.key("virtual");
  json.begin_object();
  json.key("admitted_requests");
  json.value(report.virt.admitted_requests);
  json.key("shed_requests");
  json.value(report.virt.shed_requests);
  json.key("coalesced_requests");
  json.value(report.virt.coalesced_requests);
  json.key("warm_requests");
  json.value(report.virt.warm_requests);
  json.key("simulated_requests");
  json.value(report.virt.simulated_requests);
  json.key("distinct_sims");
  json.value(report.virt.distinct_sims);
  json.key("max_queue_depth");
  json.value(report.virt.max_queue_depth);
  json.key("sim_cycles");
  json.value(report.virt.sim_cycles);
  json.key("offered_cycles");
  json.value(report.virt.offered_cycles);
  json.key("first_arrival_vus");
  json.value(report.virt.first_arrival_vus);
  json.key("makespan_vus");
  json.value(report.virt.makespan_vus);
  write_latency_json(json, "queue", report.virt.queue);
  write_latency_json(json, "service", report.virt.service);
  write_latency_json(json, "total", report.virt.total);
  json.key("requests");
  json.begin_array();
  for (const RequestOutcome& out : report.virt.outcomes) {
    json.begin_object();
    json.key("id");
    json.value(static_cast<u64>(out.id));
    json.key("outcome");
    json.value(outcome_name(out.outcome));
    json.key("queue_vus");
    json.value(out.queue_vus);
    json.key("service_vus");
    json.value(out.service_vus);
    json.key("total_vus");
    json.value(out.total_vus);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("host");
  json.begin_object();
  json.key("jobs");
  json.value(static_cast<u64>(report.host.jobs));
  json.key("simulations");
  json.value(report.host.simulations);
  json.key("wall_us");
  json.value(report.host.wall_us);
  json.key("req_per_sec");
  json.value(report.host.req_per_sec);
  json.key("sim_wall_us");
  json.value(report.host.sim_wall_us);
  json.key("program_cache_hits");
  json.value(vsim::ProgramCache::instance().stats().hits);
  json.key("program_cache_misses");
  json.value(vsim::ProgramCache::instance().stats().misses);
  json.key("stage_cache_hits");
  json.value(kernels::MatrixStageCache::instance().stats().hits);
  json.key("stage_cache_misses");
  json.value(kernels::MatrixStageCache::instance().stats().misses);
  json.key("sim_cache");
  if (const auto& cache = report.host.sim_cache) {
    json.begin_object();
    json.key("hits");
    json.value(cache->hits);
    json.key("misses");
    json.value(cache->misses);
    json.key("stores");
    json.value(cache->stores);
    json.end_object();
  } else {
    json.null();
  }
  json.end_object();
  if (telemetry::enabled()) {
    // Skipped wholesale by tools/bench_diff.py, like the bench reports'
    // section.
    json.key("telemetry");
    telemetry::write_telemetry_json(json);
  }
  json.end_object();
}

}  // namespace smtu::serve
