// Extension E5: multi-core scaling of sparse transposition.
//
// Runs the sharded HiSM transpose (block-row panels + merge, kernels/shard)
// and the classic parallel CRS baseline (atomic histogram -> prefix sum ->
// scatter, kernels/crs_parallel) on the banked-memory MultiCoreSystem at
// N = 1, 2, 4, 8 cores, and reports the scaling curve with the per-core
// stall taxonomy (docs/MULTICORE.md). N = 1 is the degenerate case that
// reproduces the single-core machine bit for bit.
//
// --json writes an "smtu-scaling-v1" report gated by tools/bench_diff.py
// against bench/baselines/BENCH_scaling_scale005.json; explore it with
// tools/prof_report.py show --per-core.
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "kernels/crs_parallel.hpp"
#include "kernels/shard.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"
#include "vsim/json_export.hpp"
#include "vsim/system.hpp"

namespace {

using namespace smtu;

constexpr u32 kCores[] = {1, 2, 4, 8};

// One (kernel, core count) run: system-level stats plus each core's full
// busy/stall bucket vector — the scaling curve's taxonomy payload.
struct CoreProfile {
  Cycle cycles = 0;
  std::array<u64, vsim::kBusyKindCount> busy{};
  std::array<u64, vsim::kStallReasonCount> stalls{};
};

struct ScalePoint {
  u32 cores = 0;
  vsim::SystemRunStats stats;
  std::vector<CoreProfile> per_core;
};

struct MatrixScaling {
  std::vector<ScalePoint> hism;
  std::vector<ScalePoint> crs;
};

std::vector<CoreProfile> collect_core_profiles(
    const std::vector<vsim::PerfCounters>& profilers) {
  std::vector<CoreProfile> per_core;
  per_core.reserve(profilers.size());
  for (const vsim::PerfCounters& profiler : profilers) {
    CoreProfile core;
    core.cycles = profiler.total_cycles();
    core.busy = profiler.busy_cycles();
    core.stalls = profiler.stall_cycles();
    per_core.push_back(core);
  }
  return per_core;
}

// Both runners decode their result; with `verify` each one must equal the
// host transpose, or the bench aborts naming the matrix, kernel and cores.
MatrixScaling scale_matrix(const suite::SuiteMatrix& entry, const vsim::SystemConfig& base,
                           bool verify) {
  const Csr csr = Csr::from_coo(entry.matrix);
  const Coo expected = verify ? entry.matrix.transposed() : Coo();
  const auto check = [&](const Coo& transposed, const char* kernel, u32 cores) {
    SMTU_CHECK_MSG(!verify || structurally_equal(transposed, expected),
                   format("kernel '%s' on %u cores decoded a wrong transpose of matrix %s",
                          kernel, cores, entry.name.c_str()));
  };
  MatrixScaling scaling;
  for (const u32 cores : kCores) {
    vsim::SystemConfig config = base;
    config.cores = cores;
    std::vector<vsim::PerfCounters> profilers;

    ScalePoint hism;
    hism.cores = cores;
    const kernels::ShardedHismTransposeResult sharded =
        kernels::run_sharded_hism_transpose(entry.matrix, config, &profilers);
    check(sharded.transposed, "hism_sharded", cores);
    hism.stats = sharded.stats;
    hism.per_core = collect_core_profiles(profilers);
    scaling.hism.push_back(std::move(hism));

    ScalePoint crs;
    crs.cores = cores;
    const kernels::ParallelCrsTransposeResult parallel =
        kernels::run_parallel_crs_transpose(csr, config, &profilers);
    check(parallel.transposed, "crs_parallel", cores);
    crs.stats = parallel.stats;
    crs.per_core = collect_core_profiles(profilers);
    scaling.crs.push_back(std::move(crs));
  }
  return scaling;
}

double speedup_vs_one_core(const std::vector<ScalePoint>& points, usize index) {
  return static_cast<double>(points[0].stats.cycles) /
         static_cast<double>(std::max<Cycle>(1, points[index].stats.cycles));
}

void write_scale_points_json(JsonWriter& json, const std::vector<ScalePoint>& points) {
  json.begin_array();
  for (usize i = 0; i < points.size(); ++i) {
    const ScalePoint& point = points[i];
    json.begin_object();
    json.key("cores");
    json.value(static_cast<u64>(point.cores));
    json.key("cycles");
    json.value(static_cast<u64>(point.stats.cycles));
    json.key("speedup");
    json.value(speedup_vs_one_core(points, i));
    json.key("barriers");
    json.value(point.stats.barriers);
    json.key("memory");
    json.begin_object();
    json.key("requests");
    json.value(point.stats.memory.requests);
    json.key("contended_requests");
    json.value(point.stats.memory.contended_requests);
    json.key("contention_cycles");
    json.value(point.stats.memory.contention_cycles);
    json.end_object();
    json.key("per_core");
    json.begin_array();
    for (usize c = 0; c < point.per_core.size(); ++c) {
      const CoreProfile& core = point.per_core[c];
      json.begin_object();
      json.key("core");
      json.value(static_cast<u64>(c));
      json.key("cycles");
      json.value(static_cast<u64>(core.cycles));
      // Every bucket, zeros included, in enum order: Σ busy + stalls ==
      // cycles (profiler conservation), and the key set is stable for
      // bench_diff.
      json.key("busy");
      json.begin_object();
      for (usize kind = 0; kind < vsim::kBusyKindCount; ++kind) {
        json.key(vsim::busy_kind_name(static_cast<vsim::BusyKind>(kind)));
        json.value(core.busy[kind]);
      }
      json.end_object();
      json.key("stalls");
      json.begin_object();
      for (usize reason = 0; reason < vsim::kStallReasonCount; ++reason) {
        json.key(vsim::stall_reason_name(static_cast<vsim::StallReason>(reason)));
        json.value(core.stalls[reason]);
      }
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
}

void write_scaling_report_json(std::ostream& out, const vsim::SystemConfig& config,
                               const suite::SuiteOptions& suite_options,
                               const std::vector<suite::SuiteMatrix>& set,
                               const std::vector<MatrixScaling>& results,
                               const bench::HarnessInfo& harness) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema");
  json.value("smtu-scaling-v1");
  json.key("bench");
  json.value("ext_multicore_scaling");
  json.key("config");
  vsim::write_machine_config_json(json, config.core);
  json.key("memory");
  json.begin_object();
  json.key("banks");
  json.value(static_cast<u64>(config.memory.banks));
  json.key("bank_bytes_per_cycle");
  json.value(static_cast<u64>(config.memory.bank_bytes_per_cycle));
  json.key("interleave_bytes");
  json.value(static_cast<u64>(config.memory.interleave_bytes));
  json.end_object();
  json.key("suite");
  json.begin_object();
  json.key("scale");
  json.value(suite_options.scale);
  json.key("seed");
  json.value(suite_options.seed);
  json.end_object();
  json.key("harness");
  bench::write_harness_json(json, harness);
  json.key("matrices");
  json.begin_array();
  for (usize i = 0; i < set.size(); ++i) {
    json.begin_object();
    json.key("name");
    json.value(set[i].name);
    json.key("set");
    json.value(set[i].set);
    json.key("nnz");
    json.value(static_cast<u64>(set[i].matrix.nnz()));
    json.key("kernels");
    json.begin_object();
    json.key("hism_sharded");
    write_scale_points_json(json, results[i].hism);
    json.key("crs_parallel");
    write_scale_points_json(json, results[i].crs);
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.key("summary");
  json.begin_object();
  for (const auto& [key, side] : {std::pair<const char*, std::vector<ScalePoint> MatrixScaling::*>{
                                      "hism_sharded", &MatrixScaling::hism},
                                  {"crs_parallel", &MatrixScaling::crs}}) {
    json.key(key);
    json.begin_array();
    for (usize n = 0; n < std::size(kCores); ++n) {
      double total = 0.0;
      for (const MatrixScaling& result : results) {
        total += speedup_vs_one_core(result.*side, n);
      }
      json.begin_object();
      json.key("cores");
      json.value(static_cast<u64>(kCores[n]));
      json.key("avg_speedup");
      json.value(total / static_cast<double>(std::max<usize>(1, results.size())));
      json.end_object();
    }
    json.end_array();
  }
  json.end_object();
  json.end_object();
  out << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);
  const vsim::SystemConfig base{};

  std::printf("== Extension E5: multi-core scaling, sharded HiSM vs parallel CRS "
              "(locality set, %u banks) ==\n",
              base.memory.banks);
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.3);
  const auto set = suite::build_dsab_set(suite::kSetLocality, suite_options);

  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool(options.jobs);
  // Each task builds its own MultiCoreSystems (one host thread per system),
  // so the reported cycles are identical for every --jobs value.
  const std::vector<MatrixScaling> results =
      parallel_map(pool, set, [&](const suite::SuiteMatrix& entry) {
        return scale_matrix(entry, base, options.verify);
      });

  const std::vector<std::string> labels = {"N=1", "N=2", "N=4", "N=8"};
  for (const auto& [title, side] :
       {std::pair<const char*, std::vector<ScalePoint> MatrixScaling::*>{
            "sharded HiSM transpose", &MatrixScaling::hism},
        {"parallel CRS transpose", &MatrixScaling::crs}}) {
    std::printf("\n-- %s: speedup vs 1 core --\n", title);
    std::vector<std::vector<double>> rows;
    rows.reserve(results.size());
    for (const MatrixScaling& result : results) {
      std::vector<double> row;
      for (usize n = 0; n < std::size(kCores); ++n) {
        row.push_back(speedup_vs_one_core(result.*side, n));
      }
      rows.push_back(std::move(row));
    }
    // CSV (one file) carries the HiSM table; the CRS one prints to stdout.
    bench::emit(bench::sweep_average_table(set, labels, rows, "%.2f", "AVERAGE speedup"),
                side == &MatrixScaling::hism ? options.csv_path : std::nullopt);
  }

  if (options.json_path) {
    bench::HarnessInfo harness;
    harness.jobs = pool.jobs();
    harness.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    std::ofstream out = open_output_file(*options.json_path);
    write_scaling_report_json(out, base, suite_options, set, results, harness);
    std::fprintf(stderr, "wrote smtu-scaling-v1 report to %s\n", options.json_path->c_str());
  }

  std::printf(
      "\nreading: the sharded HiSM transpose scales until panels run out (top-level\n"
      "block rows bound the useful core count) and the scalar merge serializes the\n"
      "tail; the CRS baseline's atomic histogram scales but pays bank contention\n"
      "and barrier waits. Per-core stall taxonomy: --json + prof_report --per-core.\n");
  bench::finish_telemetry(options);
  return 0;
}
