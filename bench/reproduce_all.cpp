// One-shot paper reproduction: runs every figure of §IV plus the headline
// and the storage claim, writes a single Markdown report with measured
// numbers next to the paper's, and a canonical machine-readable
// BENCH_repro.json (the "smtu-repro-v1" schema) for per-PR perf tracking
// via tools/bench_diff.py. The per-figure binaries remain the tools for
// focused runs and sweeps; this produces the shareable artifacts.
//
//   ./reproduce_all [--out=REPORT.md] [--json=BENCH_repro.json]
//                   [--scale=1.0] [--seed=...] [--profile] [--jobs=N]
//                   [--sim-cache=DIR]
//
// --sim-cache replays previously seen simulations from the on-disk result
// cache (bit-identical reports modulo the wall_ms/host keys; see HACKING.md
// "Host performance").
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "kernels/utilization.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "vsim/json_export.hpp"

namespace {

using namespace smtu;

void markdown_table(std::ostream& out, const TextTable& table) {
  table.print_markdown(out);
  out << '\n';
}

struct FigureResult {
  const bench::FigureSeries& series;
  std::vector<bench::MatrixRecord> records;
};

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const std::string out_path = cli.get_string("out", "REPORT.md");
  bench::BenchOptions options = bench::parse_options(cli);
  // The JSON artifact is always produced; it lands next to REPORT.md under
  // its canonical name unless --json overrides the path.
  if (!options.json_path) options.json_path = "BENCH_repro.json";
  const vsim::MachineConfig config;
  const auto started = std::chrono::steady_clock::now();

  // Both outputs open before any simulation, so a path that cannot be
  // written fails before the run, not after it.
  std::ofstream json_out = open_output_file(*options.json_path);
  std::ofstream out = open_output_file(out_path);

  out << "# Reproduction report — Sparse Matrix Transpose Unit (IPPS 2004)\n\n";
  out << format(
      "Machine: s = %u, p = %u, memory startup %u cycles (%u B/cycle contiguous, "
      "%u elem/cycle indexed), chaining %s; STM B = %u, L = %u. Suite scale %.2f.\n\n",
      config.section, config.lanes, config.mem_startup, config.mem_bytes_per_cycle,
      config.mem_indexed_elems_per_cycle, config.chaining ? "on" : "off",
      config.stm.bandwidth, config.stm.lines, options.suite.scale);

  // The full suite is generated once; every section below (the Fig. 10
  // grid, the per-figure sets, the storage claim) slices or reuses it —
  // build_dsab_suite is just the three sets concatenated, so the slices are
  // bit-identical to building each set on its own.
  std::fprintf(stderr, "suite ...\n");
  const auto suite_matrices = suite::build_dsab_suite(options.suite);
  const auto set_slice = [&](const char* set_name) {
    std::vector<suite::SuiteMatrix> slice;
    for (const auto& entry : suite_matrices) {
      if (entry.set == set_name) slice.push_back(entry);
    }
    return slice;
  };

  // ---- Fig. 10 -----------------------------------------------------------
  std::fprintf(stderr, "Fig. 10 ...\n");
  out << "## Fig. 10 — buffer bandwidth utilization\n\n";
  bench::UtilizationGrid fig10;
  {
    ThreadPool pool(options.jobs);
    // Conversions land in the process-wide stage cache, so the Fig. 11-13
    // comparisons below reuse them instead of re-running from_coo. The STM
    // line traces are config-independent: extracted once per matrix here,
    // they serve all 16 (B, L) grid points.
    const auto traces =
        parallel_map(pool, suite_matrices, [&](const suite::SuiteMatrix& entry) {
          return kernels::stm_block_traces(
              kernels::MatrixStageCache::instance().hism(entry.matrix, config.section)->hism);
        });
    fig10 = bench::utilization_grid(pool, traces);
  }
  markdown_table(out, bench::utilization_table(fig10));
  out << "Paper: BU max at B=1 (short of 1.0 only by the 6-cycle block penalty); "
         "grows with L, saturates past L=4 — the basis for fixing L=4.\n\n";

  // ---- Figs. 11-13 ---------------------------------------------------------
  std::vector<FigureResult> figure_results;
  std::vector<bench::MatrixRecord> all_records;
  for (const bench::FigureSeries& series : bench::kFigures) {
    std::fprintf(stderr, "%s ...\n", series.title);
    out << "## " << series.title << "\n\n";
    // Fanned across the pool; record order (and thus every table/JSON row)
    // matches the serial -j1 run.
    FigureResult result{series, bench::run_comparisons(set_slice(series.set), config, options,
                                                       series.metric_header, series.metric)};
    std::fprintf(stderr, "  %s done (%zu matrices)\n", series.set, result.records.size());
    markdown_table(out, bench::figure_table(series, result.records));
    const bench::SpeedupSummary summary = bench::summarize_speedups(result.records);
    out << format("measured speedup: min %.1f, max %.1f, avg %.1f — paper: %.1f / %.1f / %.1f\n\n",
                  summary.min, summary.max, summary.avg, series.paper.min, series.paper.max,
                  series.paper.avg);
    all_records.insert(all_records.end(), result.records.begin(), result.records.end());
    figure_results.push_back(std::move(result));
  }

  // ---- Headline + storage --------------------------------------------------
  const bench::SpeedupSummary headline = bench::summarize_speedups(all_records);
  out << "## Headline\n\n";
  out << format("All %zu matrices: speedup %.1f .. %.1f, average %.1f "
                "(paper: %.1f .. %.1f, average %.1f).\n\n",
                headline.count, headline.min, headline.max, headline.avg,
                bench::kPaperHeadline.min, bench::kPaperHeadline.max, bench::kPaperHeadline.avg);

  std::fprintf(stderr, "storage ...\n");
  out << "## Storage (§II claim)\n\n";
  const bench::StorageSummary storage =
      bench::storage_footprints(suite_matrices, config.section, options.jobs);
  out << format("HiSM/CRS byte ratio averages %.2f over the suite; hierarchy overhead "
                "averages %.1f%% (paper: ~2-5%% at s = 64).\n",
                storage.ratio_avg, 100.0 * storage.overhead_fraction_avg);

  // ---- pointers beyond the paper ------------------------------------------
  out << "\n## Beyond the paper\n\n";
  out << "Results not part of the original evaluation live in their own benches "
         "(EXPERIMENTS.md records the measured numbers): `ext_multicore_scaling` "
         "runs the sharded HiSM and parallel CRS transposes at N = 1, 2, 4, 8 "
         "cores on the banked shared-memory system (docs/MULTICORE.md), and "
         "`ext_kernel_suite` runs the SELL-C-\xcf\x83 SpMV and the "
         "Gustavson-on-HiSM SpGEMM kernels across the locality and irregular "
         "sets (docs/KERNELS.md, docs/FORMATS.md). Both emit bench_diff-gated "
         "JSON reports next to this one.\n";

  // ---- harness -------------------------------------------------------------
  const bench::HarnessInfo harness{
      resolve_jobs(options.jobs),
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count()};
  out << "\n## Harness\n\n";
  out << format("Simulations fanned over %u worker thread(s) (--jobs) on a host with %u "
                "hardware thread(s); total wall time %.0f ms. Cycle counts are "
                "deterministic: identical for every -j value. Wall-clock speedup tracks "
                "the host's core count — on a single-core host the fan-out buys no time, "
                "only the determinism guarantee is exercised.\n",
                harness.jobs, std::thread::hardware_concurrency(), harness.wall_ms);

  // ---- machine-readable artifact -------------------------------------------
  {
    JsonWriter json(json_out);
    json.begin_object();
    json.key("schema");
    json.value("smtu-repro-v1");
    json.key("bench");
    json.value("reproduce_all");
    json.key("config");
    vsim::write_machine_config_json(json, config);
    json.key("suite");
    json.begin_object();
    json.key("scale");
    json.value(options.suite.scale);
    json.key("seed");
    json.value(options.suite.seed);
    json.end_object();
    json.key("harness");
    bench::write_harness_json(json, harness);
    json.key("host");
    bench::write_host_json(json, bench::collect_host_counters(options.sim_cache_dir));
    if (telemetry::enabled()) {
      // Telemetry-only key, dropped wholesale by tools/bench_diff.py, so
      // telemetry-on and -off reports match.
      json.key("telemetry");
      telemetry::write_telemetry_json(json);
    }
    json.key("fig10");
    json.begin_object();
    json.key("bandwidths");
    json.begin_array();
    for (const u32 bandwidth : fig10.bandwidths) json.value(static_cast<u64>(bandwidth));
    json.end_array();
    json.key("lines");
    json.begin_array();
    for (const u32 lines : fig10.lines) json.value(static_cast<u64>(lines));
    json.end_array();
    json.key("utilization");
    json.begin_array();
    for (const auto& row : fig10.utilization) {
      json.begin_array();
      for (const double utilization : row) json.value(utilization);
      json.end_array();
    }
    json.end_array();
    json.end_object();
    json.key("figures");
    json.begin_array();
    for (const FigureResult& result : figure_results) {
      json.begin_object();
      json.key("figure");
      json.value(result.series.figure);
      json.key("set");
      json.value(result.series.set);
      json.key("matrices");
      bench::write_matrix_records_json(json, result.records);
      json.key("summary");
      bench::write_speedup_summary_json(json, bench::summarize_speedups(result.records));
      json.key("paper");
      json.begin_object();
      json.key("min_speedup");
      json.value(result.series.paper.min);
      json.key("max_speedup");
      json.value(result.series.paper.max);
      json.key("avg_speedup");
      json.value(result.series.paper.avg);
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.key("headline");
    bench::write_speedup_summary_json(json, headline);
    json.key("storage");
    json.begin_object();
    json.key("hism_crs_byte_ratio_avg");
    json.value(storage.ratio_avg);
    json.key("overhead_fraction_avg");
    json.value(storage.overhead_fraction_avg);
    json.end_object();
    json.end_object();
    json_out << '\n';
    SMTU_CHECK_MSG(json.complete(), "BENCH_repro.json document left unbalanced");
  }
  json_out.close();

  std::fprintf(stderr, "report written to %s\n", out_path.c_str());
  std::printf("wrote %s and %s\n", out_path.c_str(), options.json_path->c_str());
  bench::finish_telemetry(options);
  return 0;
}
