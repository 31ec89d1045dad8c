// Ablation A7: sensitivity to the scalar-core model. The authors ran the
// CRS baseline's phase 1 on "the baseline 4-way issue superscalar processor
// simulated by SimpleScalar" with an unpublished configuration; our model
// is a scoreboarded in-order core with a configurable load latency. This
// sweep shows how much of the headline speedup rides on that assumption —
// the honest error bar for the reproduction.
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  // Variant 2l runs HiSM and variant 2l + 1 runs CRS at the l-th latency.
  std::vector<std::string> labels;
  std::vector<bench::TransposeVariant> variants;
  for (const u32 latency : {2u, 4u, 8u, 16u, 32u}) {
    vsim::MachineConfig config;
    config.scalar_load_latency = latency;
    const std::string& label = labels.emplace_back(format("lat=%u", latency));
    variants.push_back({label + " HiSM", kernels::hism_transpose_program(), config});
    variants.push_back({label + " CRS", kernels::crs_transpose_program(config.section), config});
  }

  std::printf("== Ablation A7: scalar load latency vs HiSM/CRS speedup (locality set) ==\n");
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.5);
  const auto set = suite::build_dsab_set(suite::kSetLocality, suite_options);

  std::vector<std::vector<double>> speedup_rows;
  for (const bench::SweepRow& row : bench::sweep_transposes(set, variants, options)) {
    std::vector<double>& speedups = speedup_rows.emplace_back();
    for (usize l = 0; l < labels.size(); ++l) {
      speedups.push_back(static_cast<double>(row.cycles(2 * l + 1)) /
                         static_cast<double>(row.cycles(2 * l)));
    }
  }
  bench::emit(bench::sweep_average_table(set, labels, speedup_rows, "%.1f", "AVERAGE"), options);
  std::printf(
      "\nreading: the CRS baseline's scalar histogram phase scales with the load\n"
      "latency, so the speedup does too. The qualitative conclusions (HiSM wins,\n"
      "monotone locality trend) hold across the whole 2..32-cycle range; the\n"
      "default of 8 sits in the middle. This is the reproduction's error bar for\n"
      "the authors' unpublished SimpleScalar configuration.\n");
  bench::finish_telemetry(options);
  return 0;
}
