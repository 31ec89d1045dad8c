// Ablation A3: the storage claim of §II — HiSM stores an 8+8-bit position
// per non-zero (plus the small higher-level hierarchy), while CRS stores a
// 32-bit column index per non-zero plus a row-pointer array.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);
  constexpr u32 kSection = 64;

  std::printf("== Ablation A3: storage footprint, HiSM (s=%u) vs CRS ==\n", kSection);
  const auto suite_matrices = suite::build_dsab_suite(options.suite);
  const bench::StorageSummary storage =
      bench::storage_footprints(suite_matrices, kSection, options.jobs);

  TextTable table({"matrix", "nnz", "CRS bytes", "HiSM bytes", "HiSM/CRS", "hier overhead"});
  for (usize i = 0; i < suite_matrices.size(); ++i) {
    const bench::StorageFootprint& footprint = storage.matrices[i];
    table.add_row({suite_matrices[i].name, format("%zu", suite_matrices[i].matrix.nnz()),
                   format("%llu", static_cast<unsigned long long>(footprint.crs_bytes)),
                   format("%llu", static_cast<unsigned long long>(footprint.hism_bytes)),
                   format("%.2f", footprint.ratio),
                   format("%.1f%%", 100.0 * footprint.overhead_fraction)});
  }
  bench::emit(table, options);

  std::printf("\naverage HiSM/CRS size ratio: %.2f  (paper: HiSM positions are 2 bytes vs\n"
              "CRS's 4-byte indices; hierarchy overhead ~2-5%% at s=64 -> avg here %.1f%%)\n",
              storage.ratio_avg, 100.0 * storage.overhead_fraction_avg);
  bench::finish_telemetry(options);
  return 0;
}
