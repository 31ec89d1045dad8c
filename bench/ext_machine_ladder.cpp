// Extension E3: the full machine ladder for sparse transposition —
//   (1) Pissanetsky on the scalar core alone (a traditional processor),
//   (2) the vectorized CRS kernel on the vector machine (§IV-A baseline),
//   (3) HiSM on the vector machine extended with the STM (the paper).
// This decomposes the headline speedup into "what vectors buy" and "what
// the STM buys on top".
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/crs_transpose.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);
  const vsim::MachineConfig config;

  std::printf("== Extension E3: scalar CRS -> vector CRS -> HiSM+STM (locality set) ==\n");
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.5);
  const auto set = suite::build_dsab_set(suite::kSetLocality, suite_options);

  TextTable table({"matrix", "scalar c/nnz", "vector c/nnz", "HiSM c/nnz",
                   "vector gain", "STM gain", "total"});
  const std::vector<bench::TransposeVariant> variants = {
      {"scalar CRS", {kernels::TransposeImage::kCrs, kernels::scalar_crs_transpose_source()},
       config},
      {"vector CRS", kernels::crs_transpose_program(config.section), config},
      {"HiSM", kernels::hism_transpose_program(), config}};
  const auto rows = bench::sweep_transposes(set, variants, options);
  double total_vector = 0.0;
  double total_stm = 0.0;
  for (usize i = 0; i < set.size(); ++i) {
    const auto& entry = set[i];
    const double nnz = static_cast<double>(std::max<usize>(1, entry.matrix.nnz()));
    const Cycle scalar_cycles = rows[i].cycles(0);
    const Cycle vector_cycles = rows[i].cycles(1);
    const Cycle hism_cycles = rows[i].cycles(2);

    const double vector_gain =
        static_cast<double>(scalar_cycles) / static_cast<double>(vector_cycles);
    const double stm_gain =
        static_cast<double>(vector_cycles) / static_cast<double>(hism_cycles);
    total_vector += vector_gain;
    total_stm += stm_gain;
    table.add_row({entry.name, format("%.1f", static_cast<double>(scalar_cycles) / nnz),
                   format("%.1f", static_cast<double>(vector_cycles) / nnz),
                   format("%.2f", static_cast<double>(hism_cycles) / nnz),
                   format("%.1fx", vector_gain), format("%.1fx", stm_gain),
                   format("%.1fx", static_cast<double>(scalar_cycles) /
                                       static_cast<double>(hism_cycles))});
  }
  bench::emit(table, options);
  const double n = static_cast<double>(set.size());
  std::printf("\naverage: the vector machine buys %.1fx over scalar CRS; the STM buys a\n"
              "further %.1fx on top — transposition is irregular enough that plain\n"
              "vectorization leaves most of the win to the dedicated unit.\n",
              total_vector / n, total_stm / n);
  bench::finish_telemetry(options);
  return 0;
}
