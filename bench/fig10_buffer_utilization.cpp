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
#include "support/parallel.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  constexpr u32 kSection = 64;

  std::printf("== Fig. 10: buffer bandwidth utilization, s=%u, 30-matrix D-SAB suite ==\n",
              kSection);
  const auto suite_matrices = suite::build_dsab_suite(options.suite);

  // Each matrix's STM block traces are extracted once and serve every
  // (B, L) point of the grid.
  ThreadPool pool(options.jobs);
  const auto traces = parallel_map(pool, suite_matrices, [&](const suite::SuiteMatrix& entry) {
    return kernels::stm_block_traces(HismMatrix::from_coo(entry.matrix, kSection));
  });
  bench::emit(bench::utilization_table(bench::utilization_grid(pool, traces)), options);

  std::printf(
      "\npaper shape: BU max at B=1 (<1.0 only due to the 6-cycle block penalty),\n"
      "rises with L, saturates for L>4 -> L=4 chosen for Figs. 11-13.\n");
  bench::finish_telemetry(options);
  return 0;
}
