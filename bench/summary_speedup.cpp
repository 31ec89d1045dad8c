// Headline result (abstract / §IV-D): HiSM-based transposition speedup over
// CRS across the full 30-matrix suite, next to the paper's
// (bench::kPaperHeadline).
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "support/parallel.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const std::string mtxdir = cli.get_string("mtxdir", "");
  const bench::BenchOptions options = bench::parse_options(cli);
  const vsim::MachineConfig config;

  const auto started = std::chrono::steady_clock::now();
  const auto suite_matrices =
      mtxdir.empty() ? suite::build_dsab_suite(options.suite)
                     : bench::load_external_suite(mtxdir, config);
  std::printf("== Headline: HiSM vs CRS transposition over %zu matrices (%s) ==\n",
              suite_matrices.size(),
              mtxdir.empty() ? "synthetic D-SAB stand-in" : mtxdir.c_str());

  const std::vector<bench::MatrixRecord> records =
      bench::run_comparisons(suite_matrices, config, options);
  const bench::HarnessInfo harness{
      resolve_jobs(options.jobs),
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count()};

  TextTable table({"matrix", "set", "nnz", "HiSM cyc/nnz", "CRS cyc/nnz", "speedup"});
  for (const auto& record : records) {
    table.add_row({record.name, record.set, format("%zu", record.nnz),
                   format("%.2f", record.comparison.hism_cycles_per_nnz),
                   format("%.2f", record.comparison.crs_cycles_per_nnz),
                   format("%.1f", record.comparison.speedup)});
  }
  bench::emit(table, options.csv_path);
  if (options.json_path) {
    std::ofstream out = open_output_file(*options.json_path);
    bench::write_bench_report_json(out, "summary_speedup", config, options.suite, records,
                                   harness, bench::collect_host_counters(options.sim_cache_dir));
    std::fprintf(stderr, "wrote JSON report to %s\n", options.json_path->c_str());
  }
  if (options.trace_json_path) {
    bench::write_transpose_trace_json(*options.trace_json_path, suite_matrices.front(),
                                      config);
  }

  const bench::SpeedupSummary summary = bench::summarize_speedups(records);
  std::printf("\nmeasured: speedup %.1f .. %.1f, average %.1f (%zu matrices)\n", summary.min,
              summary.max, summary.avg, summary.count);
  std::printf("paper:    speedup %.1f .. %.1f, average %.1f (30 matrices)\n",
              bench::kPaperHeadline.min, bench::kPaperHeadline.max, bench::kPaperHeadline.avg);
  bench::finish_telemetry(options);
  return 0;
}
