// Ablation A1: the paper's extended mechanism inserts multiple lines per
// cycle only when their indices are *consecutive* (cheap row decoders). How
// much does that restriction cost against a hypothetical unit with L fully
// independent line buffers?
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/utilization.hpp"
#include "support/parallel.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  constexpr u32 kSection = 64;
  constexpr u32 kBandwidth = 4;  // the paper's B = p = 4
  constexpr u32 kLines[] = {1, 2, 4, 8, 16};

  std::printf(
      "== Ablation A1: strict consecutive-lines rule vs relaxed (any %u-line) buffers ==\n"
      "(avg BU over the 30-matrix suite, s=%u, B=%u)\n",
      kBandwidth, kSection, kBandwidth);
  const auto suite_matrices = suite::build_dsab_suite(options.suite);

  // Each task extracts one matrix's STM block traces once and evaluates
  // every (L, rule) point on them; the averages are accumulated serially
  // afterwards so the sums stay order-stable.
  struct UtilizationPair {
    double strict_bu;
    double relaxed_bu;
  };
  ThreadPool pool(options.jobs);
  const auto per_matrix = parallel_map(pool, suite_matrices, [&](const suite::SuiteMatrix& entry) {
    const kernels::StmTraceSet traces =
        kernels::stm_block_traces(HismMatrix::from_coo(entry.matrix, kSection));
    std::vector<UtilizationPair> pairs;
    for (const u32 lines : kLines) {
      StmConfig strict;
      strict.section = kSection;
      strict.bandwidth = kBandwidth;
      strict.lines = lines;
      strict.strict_consecutive_lines = true;
      StmConfig relaxed = strict;
      relaxed.strict_consecutive_lines = false;
      pairs.push_back({kernels::stm_utilization(traces, strict).utilization,
                       kernels::stm_utilization(traces, relaxed).utilization});
    }
    return pairs;
  });

  TextTable table({"L", "BU strict", "BU relaxed", "relaxed gain"});
  for (usize v = 0; v < std::size(kLines); ++v) {
    double strict_sum = 0.0;
    double relaxed_sum = 0.0;
    for (const std::vector<UtilizationPair>& pairs : per_matrix) {
      strict_sum += pairs[v].strict_bu;
      relaxed_sum += pairs[v].relaxed_bu;
    }
    const double n = static_cast<double>(per_matrix.size());
    table.add_row({format("L=%u", kLines[v]), format("%.3f", strict_sum / n),
                   format("%.3f", relaxed_sum / n),
                   format("%+.1f%%", (relaxed_sum / strict_sum - 1.0) * 100.0)});
  }
  bench::emit(table, options);
  std::printf(
      "\nreading: if the relaxed gain is small at L=4, the paper's cheap consecutive-\n"
      "line hardware is justified; the gap closes further as L grows.\n");
  bench::finish_telemetry(options);
  return 0;
}
