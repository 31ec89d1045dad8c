// hostbench: the host-time benchmark (README.md in this directory).
//
//   hostbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--smoke] [--source-rev=REV] [--out-dir=DIR]
//
// Sets the workload up several times (set-up time is their median), then
// runs timed rounds for S seconds. With --trace=0 every round is untraced and
// the end-to-end metrics are reported; with --trace=1 untraced and traced
// rounds alternate, the per-layer metrics come from the traced ones, and the
// spans are written as a Chrome trace. Progress lines ("hostbench-plan",
// "hostbench-round") go to stdout ahead of the result so that a wrapper can
// count the operations of a round that aborts; the last stdout line is the
// result object. Human-readable tables go to stderr.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "spans.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

#ifndef HOSTBENCH_BUILD_TYPE
#define HOSTBENCH_BUILD_TYPE ""
#endif

namespace hostbench {
namespace {

namespace fs = std::filesystem;

constexpr int kSetups = 5;         // set-up repetitions (setup_s is their median)
constexpr u32 kMaxJobs = 4;        // host worker threads of the serve workloads

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Nearest-rank percentile (rank ceil(q * n), 1-based), as the serve model's
// latency summaries use; 0 for no samples.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const usize index = static_cast<usize>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                  &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    return brand;
  }
#endif
  return "unknown";
}

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

std::string number(double value) {
  char text[64];
  const auto written = std::to_chars(text, text + sizeof(text), value);
  return std::string(text, written.ptr);
}

// One line of the per-layer self-time table.
void print_layer(const char* name, double seconds, double round_s) {
  std::fprintf(stderr, "  %-22s %12.6f s  %6.2f%%\n", name, seconds, 100.0 * ratio(seconds, round_s));
}

int run(int argc, char** argv) {
  smtu::CommandLine cli(argc, argv);
  const std::string workload_name = cli.get_string("workload", "");
  const std::string seed_text = cli.get_string("seed", "1");
  const double seconds = cli.get_double("seconds", 10.0);
  const bool traced = cli.get_int("trace", 0) != 0;
  const bool smoke = cli.get_flag("smoke");
  const std::string source_rev = cli.get_string("source-rev", "unknown");
  const fs::path out_dir = cli.get_string("out-dir", ".bench_build/hostbench");
  cli.finish();

  WorkloadOptions options;
  const auto parsed =
      std::from_chars(seed_text.data(), seed_text.data() + seed_text.size(), options.seed);
  if (parsed.ec != std::errc() || parsed.ptr != seed_text.data() + seed_text.size()) {
    std::fprintf(stderr, "hostbench: --seed must be a non-negative integer\n");
    return 2;
  }
  options.smoke = smoke;
  options.jobs = std::min(kMaxJobs, std::max(1u, std::thread::hardware_concurrency()));
  options.work_dir = out_dir / "work" / (workload_name + "-" + std::to_string(getpid()));
  fs::remove_all(options.work_dir);
  fs::create_directories(options.work_dir);
  const std::unique_ptr<Workload> workload = make_workload(workload_name, options);
  if (!workload) {
    std::fprintf(stderr, "hostbench: unknown --workload '%s' "
                         "(paper_suite, serve_zipf, design_sweep)\n", workload_name.c_str());
    return 2;
  }

  const std::vector<std::pair<std::string, std::string>> fingerprint = {
      {"workload", workload_name},
      {"seed", seed_text},
      {"cpus", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", cpu_model()},
      {"compiler", __VERSION__},
      {"build_type", HOSTBENCH_BUILD_TYPE},
      {"optimized", optimized_build() ? "yes" : "NO"},
      {"source_rev", source_rev},
      {"host_jobs", std::to_string(options.jobs)},
  };
  std::fprintf(stderr, "hostbench fingerprint:");
  for (const auto& [key, value] : fingerprint) std::fprintf(stderr, " %s=%s", key.c_str(), value.c_str());
  std::fprintf(stderr, "\n");
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "\n*** WARNING: UNOPTIMISED BUILD (build type '%s'). Host times from this "
                 "binary are not comparable with a Release build. ***\n\n",
                 HOSTBENCH_BUILD_TYPE);
  }

  // ---- set-up ----
  std::vector<double> setup_s;
  u64 setup_failed = 0;
  const int setups = smoke ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    clear_library_caches();
    // The last set-up is traced in the traced run, for the Chrome trace.
    recorder().set_enabled(traced && i + 1 == setups);
    const auto started = Clock::now();
    {
      Span span("bench.setup");
      setup_failed += workload->setup();
    }
    setup_s.push_back(seconds_since(started));
  }
  recorder().set_enabled(false);
  // Every set-up runs each operation of a round once, serially, so the peak
  // so far is the footprint of the work itself. The timed rounds are left
  // out: on the thread pool their peak varies with how the allocator's
  // per-thread arenas happen to fill.
  const double rss_mb = peak_rss_mb();
  std::printf("hostbench-plan %llu\n", static_cast<unsigned long long>(workload->ops_per_round()));
  std::fflush(stdout);

  // ---- timed rounds ----
  std::vector<RoundResult> plain;   // untraced rounds
  std::vector<RoundResult> probed;  // traced rounds
  std::vector<std::map<std::string, double>> probed_self;
  u64 attempted = 0;
  u64 failed = 0;
  const ModelMetrics model = workload->model();
  bool model_repeats = true;
  const usize min_rounds = smoke ? 2 : (traced ? 4 : 3);
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  for (usize index = 0;; ++index) {
    const usize done = plain.size() + probed.size();
    if (done >= min_rounds && (smoke || Clock::now() >= deadline)) break;
    const bool trace_round = traced && index % 2 == 1;
    recorder().set_enabled(trace_round);
    const usize first_span = recorder().size();
    RoundResult result = workload->round();
    recorder().set_enabled(false);
    if (!(workload->model() == model)) model_repeats = false;
    attempted += result.attempted;
    failed += result.failed;
    std::printf("hostbench-round %llu %llu\n", static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    std::fflush(stdout);
    if (trace_round) {
      probed_self.push_back(recorder().self_seconds(first_span));
      probed.push_back(std::move(result));
    } else {
      plain.push_back(std::move(result));
    }
  }
  fs::remove_all(options.work_dir);

  // ---- end-to-end metrics (untraced rounds) ----
  // Host timings come from the fastest work of the run. Every round does
  // the same work, and load from elsewhere on the machine only ever slows
  // a round down, so the fastest round (and each operation's fastest time)
  // measures the code; the spread of the rest measures the neighbours.
  std::vector<double> round_s;
  for (const RoundResult& round : plain) round_s.push_back(round.wall_s);
  const RoundResult& fastest = *std::min_element(
      plain.begin(), plain.end(),
      [](const RoundResult& a, const RoundResult& b) { return a.wall_s < b.wall_s; });
  // Each operation's fastest time; a batch-served request's answer exists
  // once its round has finished, so there the operation time is the round's.
  std::vector<double> op_ms(fastest.op_ms.size(), 0.0);
  for (usize i = 0; i < op_ms.size(); ++i) {
    op_ms[i] = fastest.op_ms[i];
    for (const RoundResult& round : plain) op_ms[i] = std::min(op_ms[i], round.op_ms[i]);
  }
  if (op_ms.empty()) op_ms.push_back(fastest.wall_s * 1e3);
  const std::vector<Metric> end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"ops_per_s", ratio(static_cast<double>(fastest.attempted), fastest.wall_s), "1/s"},
      {"op_p50_ms", percentile(op_ms, 0.5), "ms"},
      {"op_p90_ms", percentile(op_ms, 0.9), "ms"},
      {"sim_mcycles_per_s", ratio(fastest.delivered_cycles, fastest.wall_s) / 1e6, "Mcycles/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"hism_speedup_avg", model.hism_speedup_avg, "x"},
      {"virtual_p99_vus", static_cast<double>(model.virtual_p99_vus), "vus"},
  };

  // ---- per-layer metrics (traced rounds; self times are per-round means,
  // so they add up to the mean traced round exactly) ----
  std::map<std::string, double> self;   // summed over traced rounds
  std::map<std::string, double> count;  // summed over traced rounds
  for (usize i = 0; i < probed.size(); ++i) {
    for (const auto& [name, value] : probed_self[i]) self[name] += value;
    for (const auto& [name, value] : probed[i].counts) count[name] += value;
  }
  const double traced_rounds = static_cast<double>(std::max<usize>(1, probed.size()));
  const auto total = [](const std::map<std::string, double>& sums, const char* name) {
    const auto it = sums.find(name);
    return it == sums.end() ? 0.0 : it->second;
  };
  const auto self_s = [&](const char* name) { return total(self, name) / traced_rounds; };
  const auto per_round = [&](const char* name) { return total(count, name) / traced_rounds; };
  const auto hit_pct = [&](const char* hits, const char* misses) {
    return 100.0 * ratio(total(count, hits), total(count, hits) + total(count, misses));
  };
  double traced_round_s = 0.0;
  for (const auto& [name, value] : self) traced_round_s += value / traced_rounds;
  std::vector<double> traced_walls;
  for (const RoundResult& round : probed) traced_walls.push_back(round.wall_s);
  const double plain_median = median(round_s);
  const double overhead_pct = 100.0 * ratio(median(traced_walls) - plain_median, plain_median);
  const double requests = total(count, "serve.requests");
  const std::vector<Metric> per_layer = {
      {"vsim.assemble_s", self_s("vsim.assemble"), "s"},
      {"vsim.program_hit_pct", hit_pct("program.hits", "program.misses"), "%"},
      {"vsim.hism_ns_per_inst", 1e9 * ratio(total(self, "kernels.hism"), total(count, "sim.hism_insts")), "ns"},
      {"vsim.crs_ns_per_inst", 1e9 * ratio(total(self, "kernels.crs"), total(count, "sim.crs_insts")), "ns"},
      {"vsim.sim_insts", per_round("sim.insts"), "count"},
      {"vsim.sim_cycles", per_round("sim.cycles"), "count"},
      {"vsim.sim_cache_hit_pct",
       100.0 * ratio(total(count, "simcache.lookups") - total(count, "simcache.stores"),
                     total(count, "simcache.lookups")),
       "%"},
      {"vsim.sim_cache_stores", per_round("simcache.stores"), "count"},
      {"stm.grid_s", self_s("stm.grid"), "s"},
      {"stm.ns_per_element", 1e9 * ratio(total(self, "stm.grid"), total(count, "stm.elements")), "ns"},
      {"stm.elements", per_round("stm.elements"), "count"},
      {"kernels.stage_s", self_s("kernels.stage"), "s"},
      {"kernels.stage_hit_pct", hit_pct("stage.hits", "stage.misses"), "%"},
      {"kernels.hism_s", self_s("kernels.hism"), "s"},
      {"kernels.crs_s", self_s("kernels.crs"), "s"},
      {"kernels.sharded_s", self_s("kernels.sharded"), "s"},
      {"suite.build_s", self_s("suite.build"), "s"},
      {"support.json_parse_s", self_s("support.json_parse"), "s"},
      {"serve.trace_parse_s", self_s("serve.trace_parse"), "s"},
      {"serve.simulate_s", self_s("serve.simulate"), "s"},
      {"serve.virtual_s", self_s("serve.virtual"), "s"},
      {"serve.report_write_s", self_s("serve.report_write"), "s"},
      {"serve.distinct_keys", per_round("serve.distinct_keys"), "count"},
      {"serve.warm_pct", 100.0 * ratio(total(count, "serve.warm"), requests), "%"},
      {"serve.coalesced_pct", 100.0 * ratio(total(count, "serve.coalesced"), requests), "%"},
      {"serve.queue_p99_vus", per_round("serve.queue_p99_vus"), "vus"},
      {"bench.unattributed_s", self_s("bench.round"), "s"},
      {"bench.round_s", traced_round_s, "s"},
      {"bench.trace_overhead_pct", overhead_pct, "%"},
  };

  // ---- human-readable report ----
  const bool correct = failed == 0 && setup_failed == 0 && model_repeats;
  std::fprintf(stderr, "\nhostbench %s seed=%s: %zu untraced + %zu traced rounds, %llu ops "
                       "attempted, %llu failed (%.3f%%), %llu set-up check(s) failed%s\n",
               workload_name.c_str(), seed_text.c_str(), plain.size(), probed.size(),
               static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
               100.0 * ratio(static_cast<double>(failed), static_cast<double>(attempted)),
               static_cast<unsigned long long>(setup_failed),
               model_repeats ? "" : ", MODEL METRICS CHANGED BETWEEN ROUNDS");
  std::fprintf(stderr, "end-to-end (untraced; fastest of %zu rounds; %zu latency samples):\n",
               plain.size(), op_ms.size());
  for (const Metric& metric : end_to_end) {
    std::fprintf(stderr, "  %-22s %16.6f %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  std::fprintf(stderr, "  (the paper's average HiSM speedup over CRS is 17.6 x; the suite is "
                       "synthetic and the model is not validated against hardware)\n");
  if (traced) {
    std::fprintf(stderr, "per-layer self time per traced round (mean of %zu):\n", probed.size());
    for (const auto& [name, value] : self) {
      if (name != "bench.round") print_layer(name.c_str(), value / traced_rounds, traced_round_s);
    }
    print_layer("(unattributed)", self_s("bench.round"), traced_round_s);
    print_layer("= traced round", traced_round_s, traced_round_s);
    std::fprintf(stderr, "  tracing overhead: %+.2f%% (median traced vs untraced round)\n",
                 overhead_pct);
    std::fprintf(stderr, "per-layer metrics:\n");
    for (const Metric& metric : per_layer) {
      std::fprintf(stderr, "  %-26s %16.6f %s\n", metric.name.c_str(), metric.value,
                   metric.unit.c_str());
    }
  }

  // ---- stamped artifacts ----
  const std::string stem = workload_name + "-seed" + seed_text + (traced ? "-trace" : "");
  fs::create_directories(out_dir / "results");
  const std::vector<Metric>& reported = traced ? per_layer : end_to_end;
  {
    std::ofstream out(out_dir / "results" / (stem + ".json"));
    smtu::JsonWriter json(out);
    json.begin_object();
    json.key("schema");
    json.value("hostbench-result-v1");
    json.key("fingerprint");
    json.begin_object();
    for (const auto& [key, value] : fingerprint) {
      json.key(key);
      json.value(value);
    }
    json.end_object();
    json.key("correct");
    json.value(correct);
    json.key("attempted");
    json.value(attempted);
    json.key("failed");
    json.value(failed);
    json.key("setup_s");
    json.begin_array();
    for (const double value : setup_s) json.value(value);
    json.end_array();
    json.key("round_s");
    json.begin_array();
    for (const double value : round_s) json.value(value);
    json.end_array();
    json.key("metrics");
    json.begin_object();
    for (const Metric& metric : reported) {
      json.key(metric.name);
      json.value(metric.value);
    }
    json.end_object();
    json.end_object();
    out << '\n';
  }
  if (traced) {
    fs::create_directories(out_dir / "traces");
    std::ofstream out(out_dir / "traces" / (stem + ".json"));
    recorder().write_chrome_trace(out, "hostbench " + workload_name, fingerprint);
    std::fprintf(stderr, "wrote %s\n", (out_dir / "traces" / (stem + ".json")).c_str());
  }

  // ---- the result line ----
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (usize i = 0; i < reported.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + reported[i].name + "\": {\"value\": " +
            number(reported[i].value) + ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::run(argc, argv); }
