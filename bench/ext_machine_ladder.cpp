// Extension E3: the full machine ladder for sparse transposition —
//   (1) Pissanetsky on the scalar core alone (a traditional processor),
//   (2) the vectorized CRS kernel on the vector machine (§IV-A baseline),
//   (3) HiSM on the vector machine extended with the STM (the paper).
// This decomposes the headline speedup into "what vectors buy" and "what
// the STM buys on top".
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "support/parallel.hpp"

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
  struct LadderTimings {
    u64 scalar_cycles;
    u64 vector_cycles;
    u64 hism_cycles;
  };
  ThreadPool pool(options.jobs);
  const auto timings = parallel_map(pool, set, [&](const suite::SuiteMatrix& entry) {
    auto& stages = kernels::MatrixStageCache::instance();
    const auto crs = stages.crs(entry.matrix);
    const auto hism = stages.hism(entry.matrix, config.section);
    return LadderTimings{kernels::time_scalar_crs_transpose(*crs, config).cycles,
                         kernels::time_crs_transpose(*crs, config).cycles,
                         kernels::time_hism_transpose(*hism, config).cycles};
  });
  double total_vector = 0.0;
  double total_stm = 0.0;
  for (usize i = 0; i < set.size(); ++i) {
    const auto& entry = set[i];
    const double nnz = static_cast<double>(std::max<usize>(1, entry.matrix.nnz()));
    const u64 scalar_cycles = timings[i].scalar_cycles;
    const u64 vector_cycles = timings[i].vector_cycles;
    const u64 hism_cycles = timings[i].hism_cycles;

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
