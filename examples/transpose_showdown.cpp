// Transpose showdown: run both transposition kernels — HiSM on the
// STM-equipped vector processor vs vectorized CRS (Pissanetsky) — on one
// matrix and report cycle counts, per-element costs, and the speedup.
//
//   ./transpose_showdown [--matrix=<path.mtx>] [--pattern=banded] [--dim=4096]
//                        [--nnz=40000] [--B=4] [--L=4] [--no-verify] [--stats]
#include <cstdio>
#include <stdexcept>

#include "formats/csr.hpp"
#include "formats/matrix_market.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "suite/generators.hpp"
#include "suite/metrics.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const std::string path = cli.get_string("matrix", "");
  const std::string pattern = cli.get_string("pattern", "banded");
  const Index dim = cli.get_u32("dim", 4096, 1);
  const usize nnz = cli.get_u32("nnz", 40000, 1);
  const u32 bandwidth = cli.get_u32("B", 4, 1);
  const u32 lines = cli.get_u32("L", 4, 1);
  const bool no_verify = cli.get_flag("no-verify");
  const bool stats = cli.get_flag("stats");
  cli.finish();

  vsim::MachineConfig config;  // the paper's machine: s=64, p=4, chaining
  if (lines > config.section) {
    cli.fail(format("option --L expects an integer in [1, %u], got '%u'", config.section, lines));
  }
  config.stm.bandwidth = bandwidth;
  config.stm.lines = lines;

  Rng rng(11);
  Coo matrix;
  if (!path.empty()) {
    try {
      matrix = read_matrix_market_file(path);
    } catch (const std::runtime_error& error) {
      cli.fail("--matrix: " + path + ": " + error.what());
    }
  } else if (pattern == "banded") {
    matrix = suite::gen_banded_rows(dim, 12, 24, rng);
  } else if (pattern == "random") {
    const Index cells = dim * dim;
    if (nnz > cells) {
      cli.fail(format("option --nnz expects an integer in [1, %llu] (--dim squared) for "
                      "--pattern=random, got '%zu'",
                      static_cast<unsigned long long>(cells), nnz));
    }
    matrix = suite::gen_random_uniform(dim, dim, nnz, rng);
  } else if (pattern == "clusters") {
    // One 200-entry cluster per started 200 non-zeros, each in its own
    // 32 x 32 block of the grid.
    const Index grid = (dim + 31) / 32;
    const Index max_nnz = 200 * grid * grid - 1;
    if (nnz > max_nnz) {
      cli.fail(format("option --nnz expects an integer in [1, %llu] for --pattern=clusters "
                      "with --dim=%llu, got '%zu'",
                      static_cast<unsigned long long>(max_nnz),
                      static_cast<unsigned long long>(dim), nnz));
    }
    matrix = suite::gen_block_clusters(grid * 32, nnz / 200 + 1, 200, rng);
  } else if (pattern == "diagonal") {
    matrix = suite::gen_diagonal(dim, rng);
  } else {
    std::fprintf(stderr, "unknown --pattern=%s\n", pattern.c_str());
    return 2;
  }

  const suite::MatrixMetrics metrics = suite::compute_metrics(matrix);
  std::printf("matrix: %llu x %llu, %zu nnz, locality %.2f, %.1f nnz/row\n",
              static_cast<unsigned long long>(metrics.rows),
              static_cast<unsigned long long>(metrics.cols), metrics.nnz, metrics.locality,
              metrics.avg_nnz_per_row);

  const kernels::HismStage hism =
      kernels::build_hism_stage(HismMatrix::from_coo(matrix, config.section));
  const kernels::CrsStage csr = kernels::build_crs_stage(Csr::from_coo(matrix));
  const Coo expected = matrix.transposed();

  std::printf("\nHiSM + STM (B=%u, L=%u):\n", bandwidth, lines);
  const auto hism_result = kernels::run_hism_transpose(hism, config);
  const bool hism_ok =
      no_verify || structurally_equal(hism_result.transposed.to_coo(), expected);
  std::printf("  %llu cycles, %.2f cycles/nnz, %llu STM block passes  [%s]\n",
              static_cast<unsigned long long>(hism_result.stats.cycles),
              static_cast<double>(hism_result.stats.cycles) /
                  static_cast<double>(std::max<usize>(1, metrics.nnz)),
              static_cast<unsigned long long>(hism_result.stats.stm_blocks),
              no_verify ? "not verified" : (hism_ok ? "verified" : "WRONG"));

  std::printf("CRS (Pissanetsky, vectorized):\n");
  const auto crs_result = kernels::run_crs_transpose(csr, config);
  const bool crs_ok = no_verify || structurally_equal(crs_result.transposed, expected);
  std::printf("  %llu cycles, %.2f cycles/nnz, %llu indexed element accesses  [%s]\n",
              static_cast<unsigned long long>(crs_result.stats.cycles),
              static_cast<double>(crs_result.stats.cycles) /
                  static_cast<double>(std::max<usize>(1, metrics.nnz)),
              static_cast<unsigned long long>(crs_result.stats.mem_indexed_elements),
              no_verify ? "not verified" : (crs_ok ? "verified" : "WRONG"));

  std::printf("\nspeedup (CRS cycles / HiSM cycles): %.1fx\n",
              static_cast<double>(crs_result.stats.cycles) /
                  static_cast<double>(std::max<u64>(1, hism_result.stats.cycles)));
  if (stats) {
    std::printf("\n-- HiSM kernel --\n%s", vsim::run_stats_summary(hism_result.stats).c_str());
    std::printf("\n-- CRS kernel --\n%s", vsim::run_stats_summary(crs_result.stats).c_str());
  }
  return hism_ok && crs_ok ? 0 : 1;
}
