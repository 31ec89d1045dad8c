// Figure 10: STM buffer-bandwidth utilization BU = (Z/C)/B, averaged over
// the 30 benchmark matrices, as a function of buffer bandwidth B for
// different numbers of accessible lines L.
//
// Paper result: utilization is highest at B = 1 (and below 100% only
// because of the 6-cycle per-block pipeline penalty); it grows with L but
// saturates above L = 4, which is why the paper fixes L = 4 for the
// performance experiments.
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/utilization.hpp"
#include "support/parallel.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  constexpr u32 kBandwidths[] = {1, 2, 4, 8};
  constexpr u32 kLines[] = {1, 2, 4, 8};
  constexpr u32 kSection = 64;

  std::printf("== Fig. 10: buffer bandwidth utilization, s=%u, 30-matrix D-SAB suite ==\n",
              kSection);
  const auto suite_matrices = suite::build_dsab_suite(options.suite);

  // Each task extracts one matrix's STM block traces once and evaluates the
  // full (B, L) grid on them; the averages are accumulated serially
  // afterwards so the sums stay order-stable.
  ThreadPool pool(options.jobs);
  const auto grids = parallel_map(pool, suite_matrices, [&](const suite::SuiteMatrix& entry) {
    const kernels::StmTraceSet traces =
        kernels::stm_block_traces(HismMatrix::from_coo(entry.matrix, kSection));
    std::vector<double> grid;
    grid.reserve(std::size(kBandwidths) * std::size(kLines));
    for (const u32 bandwidth : kBandwidths) {
      for (const u32 lines : kLines) {
        StmConfig config;
        config.section = kSection;
        config.bandwidth = bandwidth;
        config.lines = lines;
        grid.push_back(kernels::stm_utilization(traces, config).utilization);
      }
    }
    return grid;
  });

  TextTable table({"B", "L=1", "L=2", "L=4", "L=8"});
  for (usize b = 0; b < std::size(kBandwidths); ++b) {
    std::vector<std::string> row = {format("%u", kBandwidths[b])};
    for (usize l = 0; l < std::size(kLines); ++l) {
      double sum = 0.0;
      for (const auto& grid : grids) {
        sum += grid[b * std::size(kLines) + l];
      }
      row.push_back(format("%.3f", sum / static_cast<double>(grids.size())));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table, options);

  std::printf(
      "\npaper shape: BU max at B=1 (<1.0 only due to the 6-cycle block penalty),\n"
      "rises with L, saturates for L>4 -> L=4 chosen for Figs. 11-13.\n");
  bench::finish_telemetry(options);
  return 0;
}
