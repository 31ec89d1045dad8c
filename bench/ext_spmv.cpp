// Extension E1: sparse matrix-vector multiplication, HiSM vs CRS vs Jagged
// Diagonals on the simulated vector processor.
//
// This is the context experiment behind the paper's introduction: the
// companion work ([5], IPDPS 2003) reports HiSM SpMV speedups of up to 5x
// over JD and CRS, depending on the sparsity pattern. We rerun that
// comparison on our machine model over the locality-sorted suite — the
// pattern axis the HiSM advantage tracks.
#include <cstdio>

#include "bench_common.hpp"
#include "formats/jagged.hpp"
#include "kernels/spmv.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);
  const vsim::MachineConfig config;

  std::printf("== Extension E1: SpMV cycles/nnz, HiSM vs CRS vs JD (locality set) ==\n");
  const auto set = suite::build_dsab_set(suite::kSetLocality, options.suite);

  TextTable table({"matrix", "locality", "HiSM", "CRS", "JD", "vs CRS", "vs JD"});
  struct SpmvCycles {
    u64 hism;
    u64 crs;
    u64 jd;
  };
  ThreadPool pool(options.jobs);
  const auto cycles = parallel_map(pool, set, [&](const suite::SuiteMatrix& entry) {
    // Each task seeds its own Rng from the matrix index, so the input
    // vectors are identical regardless of execution order.
    Rng rng(options.suite.seed ^ entry.index);
    std::vector<float> x(entry.matrix.cols());
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

    auto& stages = kernels::MatrixStageCache::instance();
    const auto hism =
        kernels::run_hism_spmv(*stages.hism(entry.matrix, config.section), x, config);
    const auto crs = kernels::run_crs_spmv(*stages.crs(entry.matrix), x, config);
    const auto jd = kernels::run_jd_spmv(Jagged::from_coo(entry.matrix), x, config);
    return SpmvCycles{hism.stats.cycles, crs.stats.cycles, jd.stats.cycles};
  });
  double sum_vs_crs = 0.0;
  double sum_vs_jd = 0.0;
  for (usize i = 0; i < set.size(); ++i) {
    const auto& entry = set[i];
    const SpmvCycles& c = cycles[i];
    const double nnz = static_cast<double>(std::max<usize>(1, entry.matrix.nnz()));
    const double vs_crs = static_cast<double>(c.crs) / static_cast<double>(c.hism);
    const double vs_jd = static_cast<double>(c.jd) / static_cast<double>(c.hism);
    sum_vs_crs += vs_crs;
    sum_vs_jd += vs_jd;
    table.add_row({entry.name, format("%.2f", entry.metrics.locality),
                   format("%.2f", static_cast<double>(c.hism) / nnz),
                   format("%.2f", static_cast<double>(c.crs) / nnz),
                   format("%.2f", static_cast<double>(c.jd) / nnz),
                   format("%.1f", vs_crs), format("%.1f", vs_jd)});
  }
  bench::emit(table, options);
  std::printf("\naverage speedup: %.1fx vs CRS, %.1fx vs JD "
              "(companion paper [5]: up to ~5x, pattern-dependent)\n",
              sum_vs_crs / static_cast<double>(set.size()),
              sum_vs_jd / static_cast<double>(set.size()));
  bench::finish_telemetry(options);
  return 0;
}
