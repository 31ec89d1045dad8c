// Ablation A5: phase 1 of the CRS transposition — scalar histogram vs the
// mask-vector scheme of §IV-A.
//
// The paper describes how the per-column counts *could* be vectorized (a
// compare-generated mask per column, then a reduction) but rejects it:
// "because the matrix is sparse, the dominant part of M_i's elements will
// be zero and vector operations will be, therefore, inefficient. For this
// reason we have not vectorized this code." This benchmark reproduces that
// design decision quantitatively — the masked variant does O(cols * nnz/s)
// vector work versus the histogram's O(nnz) scalar work.
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/crs_transpose.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);
  const vsim::MachineConfig config;

  // The masked variant is quadratic-ish; run on a small slice of the suite.
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.1);
  const auto set = suite::build_dsab_set(suite::kSetAnz, suite_options);

  std::printf("== Ablation A5: CRS phase 1 — scalar histogram vs mask vectors ==\n");
  const std::string masked =
      kernels::crs_transpose_source(config.section, {.masked_phase1 = true});
  const std::vector<bench::TransposeVariant> variants = {
      {"scalar", kernels::crs_transpose_program(config.section), config},
      {"masked", {kernels::TransposeImage::kCrs, masked}, config}};
  const auto rows = bench::sweep_transposes(set, variants, options);

  TextTable table({"matrix", "nnz", "cols", "scalar total", "masked total", "slowdown"});
  for (usize i = 0; i < set.size(); ++i) {
    const auto& entry = set[i];
    const Cycle scalar_cycles = rows[i].cycles(0);
    const Cycle masked_cycles = rows[i].cycles(1);
    table.add_row({entry.name, format("%zu", entry.matrix.nnz()),
                   format("%llu", static_cast<unsigned long long>(entry.matrix.cols())),
                   format("%llu", static_cast<unsigned long long>(scalar_cycles)),
                   format("%llu", static_cast<unsigned long long>(masked_cycles)),
                   format("%.1fx", static_cast<double>(masked_cycles) /
                                       static_cast<double>(scalar_cycles))});
  }
  bench::emit(table, options);
  std::printf("\nreading: the masked variant loses by growing factors as matrices grow —\n"
              "the paper's choice of scalar code for phase 1 is the right one.\n");
  bench::finish_telemetry(options);
  return 0;
}
