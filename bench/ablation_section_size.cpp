// Ablation A4: sensitivity of the HiSM transposition to the section size s
// (the paper fixes s = 64; §II notes s < 256 keeps positions in 8 bits).
// Larger sections mean fewer, denser blocks (less per-block penalty) but a
// bigger s x s memory; smaller sections shrink the hardware but multiply
// hierarchy levels and block overheads.
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/hism_transpose.hpp"
#include "support/parallel.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  const auto variants = bench::sweep_configs<vsim::MachineConfig>(
      "s=", {16, 32, 64, 128, 256},
      [](vsim::MachineConfig& config, u32 section) { config.section = section; });

  std::printf("== Ablation A4: HiSM transpose vs section size (locality set) ==\n");
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.3);
  const auto set = suite::build_dsab_set(suite::kSetLocality, suite_options);

  ThreadPool pool(options.jobs);
  const auto per_nnz_rows = parallel_map(pool, set, [&](const suite::SuiteMatrix& entry) {
    std::vector<double> per_nnz_row;
    per_nnz_row.reserve(variants.size());
    for (const auto& variant : variants) {
      const auto stage =
          kernels::MatrixStageCache::instance().hism(entry.matrix, variant.config.section);
      const u64 cycles = kernels::time_hism_transpose(*stage, variant.config).cycles;
      per_nnz_row.push_back(static_cast<double>(cycles) /
                            static_cast<double>(std::max<usize>(1, entry.matrix.nnz())));
    }
    return per_nnz_row;
  });
  bench::emit(bench::sweep_average_table(set, bench::variant_labels(variants), per_nnz_rows,
                                         "%.2f", "AVERAGE cyc/nnz"),
              options);
  bench::finish_telemetry(options);
  return 0;
}
