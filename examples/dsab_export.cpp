// Exports the synthetic D-SAB stand-in suite as MatrixMarket files, so the
// 30 benchmark matrices can be inspected, plotted, or fed to other tools —
// and so users with the original D-SAB files can diff selection criteria.
//
//   ./dsab_export [--dir=dsab] [--scale=1.0] [--set=locality|anz|size] [--pool]
//
// --pool exports the 132-matrix selection population (see suite/selection)
// instead of the 30 benchmark matrices.
#include <cstdio>
#include <filesystem>

#include "formats/matrix_market.hpp"
#include "suite/dsab.hpp"
#include "suite/selection.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const std::string dir = cli.get_string("dir", "dsab");
  const std::string only_set = cli.get_string("set", "");
  const bool pool = cli.get_flag("pool");
  suite::SuiteOptions options;
  options.scale = cli.get_double("scale", 1.0);
  options.seed = cli.get_u64("seed", 0xD5ABD5ABull);
  cli.finish();
  // Checked before the output directory is created.
  if (!suite::valid_scale(options.scale)) {
    cli.fail(format("option --scale expects a number in (0, 1], got '%g'", options.scale));
  }

  std::filesystem::create_directories(dir);
  const auto suite_matrices = pool ? suite::build_dsab_pool(options)
                              : only_set.empty()
                                  ? suite::build_dsab_suite(options)
                                  : suite::build_dsab_set(only_set, options);
  for (const auto& entry : suite_matrices) {
    const std::string path = dir + "/" + entry.set + "_" +
                             format("%02u", entry.index) + "_" + entry.name + ".mtx";
    write_matrix_market_file(
        path, entry.matrix,
        format("synthetic D-SAB stand-in: set=%s locality=%.3f anz=%.2f",
               entry.set.c_str(), entry.metrics.locality, entry.metrics.avg_nnz_per_row));
    std::printf("%-44s %10zu nnz  locality %6.2f  anz %7.2f\n", path.c_str(),
                entry.matrix.nnz(), entry.metrics.locality, entry.metrics.avg_nnz_per_row);
  }
  return 0;
}
