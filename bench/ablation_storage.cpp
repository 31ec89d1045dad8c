// Ablation A3: the storage claim of §II — HiSM stores an 8+8-bit position
// per non-zero (plus the small higher-level hierarchy), while CRS stores a
// 32-bit column index per non-zero plus a row-pointer array.
#include <cstdio>

#include "bench_common.hpp"
#include "hism/stats.hpp"
#include "support/parallel.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);
  constexpr u32 kSection = 64;

  std::printf("== Ablation A3: storage footprint, HiSM (s=%u) vs CRS ==\n", kSection);
  const auto suite_matrices = suite::build_dsab_suite(options.suite);

  TextTable table({"matrix", "nnz", "CRS bytes", "HiSM bytes", "HiSM/CRS", "hier overhead"});
  struct StorageRow {
    u64 crs_bytes;
    HismStats stats;
  };
  ThreadPool pool(options.jobs);
  const auto rows = parallel_map(pool, suite_matrices, [&](const suite::SuiteMatrix& entry) {
    const Csr csr = Csr::from_coo(entry.matrix);
    return StorageRow{csr.storage_bytes(),
                      compute_stats(HismMatrix::from_coo(entry.matrix, kSection))};
  });
  double ratio_sum = 0.0;
  double overhead_sum = 0.0;
  for (usize i = 0; i < suite_matrices.size(); ++i) {
    const auto& entry = suite_matrices[i];
    const StorageRow& r = rows[i];
    const double ratio =
        static_cast<double>(r.stats.storage_bytes) / static_cast<double>(r.crs_bytes);
    ratio_sum += ratio;
    overhead_sum += r.stats.overhead_fraction;
    table.add_row({entry.name, format("%zu", entry.matrix.nnz()),
                   format("%llu", static_cast<unsigned long long>(r.crs_bytes)),
                   format("%llu", static_cast<unsigned long long>(r.stats.storage_bytes)),
                   format("%.2f", ratio), format("%.1f%%", 100.0 * r.stats.overhead_fraction)});
  }
  bench::emit(table, options);

  const double n = static_cast<double>(suite_matrices.size());
  std::printf("\naverage HiSM/CRS size ratio: %.2f  (paper: HiSM positions are 2 bytes vs\n"
              "CRS's 4-byte indices; hierarchy overhead ~2-5%% at s=64 -> avg here %.1f%%)\n",
              ratio_sum / n, 100.0 * overhead_sum / n);
  bench::finish_telemetry(options);
  return 0;
}
