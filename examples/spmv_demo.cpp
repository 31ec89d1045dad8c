// SpMV demo: multiply a sparse matrix by a vector three ways on the
// simulated machine — HiSM (positional multiply-accumulate), CRS
// (gather-reduce), and Jagged Diagonals — and check them against the host
// reference.
//
//   ./spmv_demo [--pattern=clusters|banded|random] [--dim=2048] [--nnz=40000]
#include <cmath>
#include <cstdio>

#include "formats/csr.hpp"
#include "formats/jagged.hpp"
#include "kernels/spmv.hpp"
#include "suite/generators.hpp"
#include "suite/metrics.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const std::string pattern = cli.get_string("pattern", "clusters");
  const Index dim = cli.get_u32("dim", 2048, 1);
  const usize nnz = cli.get_u32("nnz", 40000, 1);
  cli.finish();

  Rng rng(23);
  Coo matrix;
  if (pattern == "clusters") {
    // One 300-entry cluster per started 300 non-zeros, each in its own
    // 32 x 32 block of the grid.
    const Index grid = (dim + 31) / 32;
    const Index max_nnz = 300 * grid * grid - 1;
    if (nnz > max_nnz) {
      cli.fail(format("option --nnz expects an integer in [1, %llu] for --pattern=clusters "
                      "with --dim=%llu, got '%zu'",
                      static_cast<unsigned long long>(max_nnz),
                      static_cast<unsigned long long>(dim), nnz));
    }
    matrix = suite::gen_block_clusters(grid * 32, nnz / 300 + 1, 300, rng);
  } else if (pattern == "banded") {
    matrix = suite::gen_banded_rows(dim, 16, 32, rng);
  } else if (pattern == "random") {
    if (nnz > dim * dim) {
      cli.fail(format("option --nnz expects an integer in [1, %llu] (--dim squared) for "
                      "--pattern=random, got '%zu'",
                      static_cast<unsigned long long>(dim * dim), nnz));
    }
    matrix = suite::gen_random_uniform(dim, dim, nnz, rng);
  } else {
    std::fprintf(stderr, "unknown --pattern=%s\n", pattern.c_str());
    return 2;
  }
  const suite::MatrixMetrics metrics = suite::compute_metrics(matrix);
  std::printf("matrix: %llu x %llu, %zu nnz, locality %.2f\n",
              static_cast<unsigned long long>(metrics.rows),
              static_cast<unsigned long long>(metrics.cols), metrics.nnz, metrics.locality);

  std::vector<float> x(matrix.cols());
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const Csr csr = Csr::from_coo(matrix);
  const std::vector<float> reference = csr.spmv(x);

  const vsim::MachineConfig config;
  auto check = [&](const std::vector<float>& y) {
    for (usize i = 0; i < y.size(); ++i) {
      if (std::fabs(y[i] - reference[i]) > 1e-3f * std::max(1.0f, std::fabs(reference[i]))) {
        return "WRONG";
      }
    }
    return "verified";
  };

  const auto hism = kernels::run_hism_spmv(
      kernels::build_hism_stage(HismMatrix::from_coo(matrix, config.section)), x, config);
  const auto crs = kernels::run_crs_spmv(kernels::build_crs_stage(csr), x, config);
  const auto jd = kernels::run_jd_spmv(Jagged::from_coo(matrix), x, config);

  const double n = static_cast<double>(std::max<usize>(1, metrics.nnz));
  std::printf("\n  HiSM: %9llu cycles  (%.2f cycles/nnz)  [%s]\n",
              static_cast<unsigned long long>(hism.stats.cycles),
              static_cast<double>(hism.stats.cycles) / n, check(hism.y));
  std::printf("  CRS:  %9llu cycles  (%.2f cycles/nnz)  [%s]\n",
              static_cast<unsigned long long>(crs.stats.cycles),
              static_cast<double>(crs.stats.cycles) / n, check(crs.y));
  std::printf("  JD:   %9llu cycles  (%.2f cycles/nnz)  [%s]\n",
              static_cast<unsigned long long>(jd.stats.cycles),
              static_cast<double>(jd.stats.cycles) / n, check(jd.y));
  std::printf("\nHiSM speedup: %.1fx vs CRS, %.1fx vs JD\n",
              static_cast<double>(crs.stats.cycles) / static_cast<double>(hism.stats.cycles),
              static_cast<double>(jd.stats.cycles) / static_cast<double>(hism.stats.cycles));
  return 0;
}
