// HiSM explorer: inspect how a matrix decomposes into the hierarchical
// block format and what it costs to store, next to CRS and Jagged Diagonal.
//
//   ./hism_explorer [--matrix=<path.mtx>] [--section=64] [--pattern=stencil5]
//                   [--dim=1000] [--nnz=20000] [--trace-json=<out.json>]
//
// Without --matrix, a synthetic matrix is generated (--pattern one of:
// random, stencil5, stencil9, banded, diagonal, clusters).
//
// --trace-json additionally runs the HiSM transposition kernel on the
// simulated STM-equipped machine, prints its cycle statistics, and dumps the
// execution trace in Chrome trace-event format (open in chrome://tracing or
// Perfetto; one track per functional unit — see docs/TRACE.md).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "formats/csr.hpp"
#include "formats/jagged.hpp"
#include "formats/matrix_market.hpp"
#include "hism/stats.hpp"
#include "kernels/hism_transpose.hpp"
#include "suite/generators.hpp"
#include "suite/metrics.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "vsim/json_export.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const std::string path = cli.get_string("matrix", "");
  const i64 section_arg = cli.get_int("section", 64);
  const std::string pattern = cli.get_string("pattern", "stencil5");
  const Index dim = cli.get_u32("dim", 1000, 1);
  const usize nnz = cli.get_u32("nnz", 20000, 1);
  const std::string trace_json = cli.get_string("trace-json", "");
  cli.finish();
  if (section_arg < 0 || !HismMatrix::valid_section(static_cast<u64>(section_arg))) {
    std::fprintf(stderr, "--section=%lld is not a power of two in [2, 256]\n",
                 static_cast<long long>(section_arg));
    return 2;
  }
  const auto section = static_cast<u32>(section_arg);

  Rng rng(7);
  Coo matrix;
  if (!path.empty()) {
    try {
      matrix = read_matrix_market_file(path);
    } catch (const std::runtime_error& error) {
      cli.fail("--matrix: " + path + ": " + error.what());
    }
    std::printf("loaded %s\n", path.c_str());
  } else if (pattern == "random") {
    if (nnz > dim * dim) {
      cli.fail(format("option --nnz expects an integer in [1, %llu] (--dim squared) for "
                      "--pattern=random, got '%zu'",
                      static_cast<unsigned long long>(dim * dim), nnz));
    }
    matrix = suite::gen_random_uniform(dim, dim, nnz, rng);
  } else if (pattern == "stencil5") {
    matrix = suite::gen_stencil5(static_cast<Index>(std::max<i64>(2, i64(dim) / 32)), rng);
  } else if (pattern == "stencil9") {
    matrix = suite::gen_stencil9(static_cast<Index>(std::max<i64>(2, i64(dim) / 32)), rng);
  } else if (pattern == "banded") {
    matrix = suite::gen_banded_rows(dim, 12, 24, rng);
  } else if (pattern == "diagonal") {
    matrix = suite::gen_diagonal(dim, rng);
  } else if (pattern == "clusters") {
    // One 128-entry cluster per started 128 non-zeros, each in its own
    // 32 x 32 block of the grid.
    const Index grid = (dim + 31) / 32;
    const Index max_nnz = 128 * grid * grid - 1;
    if (nnz > max_nnz) {
      cli.fail(format("option --nnz expects an integer in [1, %llu] for --pattern=clusters "
                      "with --dim=%llu, got '%zu'",
                      static_cast<unsigned long long>(max_nnz),
                      static_cast<unsigned long long>(dim), nnz));
    }
    matrix = suite::gen_block_clusters(grid * 32, nnz / 128 + 1, 128, rng);
  } else {
    std::fprintf(stderr, "unknown --pattern=%s\n", pattern.c_str());
    return 2;
  }

  const suite::MatrixMetrics metrics = suite::compute_metrics(matrix);
  std::printf("\nmatrix: %llu x %llu, %zu non-zeros\n",
              static_cast<unsigned long long>(metrics.rows),
              static_cast<unsigned long long>(metrics.cols), metrics.nnz);
  std::printf("locality (32x32 metric of the paper): %.2f\n", metrics.locality);
  std::printf("average non-zeros per row (ANZ):      %.2f\n", metrics.avg_nnz_per_row);

  const HismMatrix hism = HismMatrix::from_coo(matrix, section);
  const HismStats stats = compute_stats(hism);
  std::printf("\nHiSM decomposition at s = %u: %u levels\n", section, stats.levels);
  TextTable levels({"level", "block-arrays", "entries", "avg fill"});
  for (u32 k = 0; k < stats.levels; ++k) {
    const double fill = stats.blocks_per_level[k] == 0
                            ? 0.0
                            : static_cast<double>(stats.entries_per_level[k]) /
                                  static_cast<double>(stats.blocks_per_level[k]);
    levels.add_row({format("%u%s", k, k == 0 ? " (values)" : " (pointers)"),
                    format("%zu", stats.blocks_per_level[k]),
                    format("%zu", stats.entries_per_level[k]), format("%.1f", fill)});
  }
  levels.print(std::cout);
  std::printf("hierarchy overhead: %.2f%% of HiSM storage (paper: ~2-5%% at s=64)\n",
              100.0 * stats.overhead_fraction);

  const Csr csr = Csr::from_coo(matrix);
  const Jagged jd = Jagged::from_coo(matrix);
  const u64 jd_bytes = static_cast<u64>(jd.values().size()) * 8 + jd.perm().size() * 4 +
                       jd.diag_ptr().size() * 4;
  std::printf("\nstorage: HiSM %llu bytes | CRS %llu bytes | JD %llu bytes\n",
              static_cast<unsigned long long>(stats.storage_bytes),
              static_cast<unsigned long long>(csr.storage_bytes()),
              static_cast<unsigned long long>(jd_bytes));
  std::printf("HiSM/CRS ratio: %.2f\n", static_cast<double>(stats.storage_bytes) /
                                            static_cast<double>(csr.storage_bytes()));

  if (!trace_json.empty()) {
    vsim::MachineConfig machine_config;
    machine_config.section = section;
    vsim::ExecutionTrace trace(usize{1} << 20);
    std::printf("\nsimulated HiSM transposition (s=%u, STM B=%u, L=%u):\n", section,
                machine_config.stm.bandwidth, machine_config.stm.lines);
    const auto result =
        kernels::run_hism_transpose(kernels::build_hism_stage(hism), machine_config, {}, &trace);
    if (!structurally_equal(result.transposed.to_coo(), matrix.transposed())) {
      std::fprintf(stderr, "simulated transpose does not match the reference\n");
      return 1;
    }
    std::fputs(vsim::run_stats_summary(result.stats).c_str(), stdout);
    std::ofstream trace_out = open_output_file(trace_json);
    vsim::write_chrome_trace(trace_out, trace, "hism_transpose");
    std::printf("wrote Chrome trace (%zu events, %llu dropped) to %s\n",
                trace.events().size(), static_cast<unsigned long long>(trace.dropped()),
                trace_json.c_str());
  }
  return 0;
}
