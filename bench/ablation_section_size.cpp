// Ablation A4: sensitivity of the HiSM transposition to the section size s
// (the paper fixes s = 64; §II notes s < 256 keeps positions in 8 bits).
// Larger sections mean fewer, denser blocks (less per-block penalty) but a
// bigger s x s memory; smaller sections shrink the hardware but multiply
// hierarchy levels and block overheads.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  std::vector<bench::TransposeVariant> variants;
  for (const u32 section : {16u, 32u, 64u, 128u, 256u}) {
    vsim::MachineConfig config;
    config.section = section;
    variants.push_back({format("s=%u", section), kernels::hism_transpose_program(), config});
  }

  std::printf("== Ablation A4: HiSM transpose vs section size (locality set) ==\n");
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.3);
  const auto set = suite::build_dsab_set(suite::kSetLocality, suite_options);

  const auto rows = bench::sweep_transposes(set, variants, options);
  std::vector<std::vector<double>> per_nnz_rows;
  for (usize i = 0; i < set.size(); ++i) {
    const double nnz = static_cast<double>(std::max<usize>(1, set[i].matrix.nnz()));
    std::vector<double>& per_nnz = per_nnz_rows.emplace_back();
    for (usize v = 0; v < variants.size(); ++v) {
      per_nnz.push_back(static_cast<double>(rows[i].cycles(v)) / nnz);
    }
  }
  bench::emit(bench::sweep_average_table(set, bench::variant_labels(variants), per_nnz_rows,
                                         "%.2f", "AVERAGE cyc/nnz"),
              options);
  bench::finish_telemetry(options);
  return 0;
}
