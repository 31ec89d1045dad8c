// End-to-end kernel correctness across the full hardware parameter grid:
// every (section, B, L, strict/relaxed, double-buffer, kernel variant)
// combination must produce the exact transpose.
#include <gtest/gtest.h>

#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

struct GridPoint {
  u32 section;
  u32 bandwidth;
  u32 lines;
  bool strict;
  bool double_buffer;
};

void PrintTo(const GridPoint& g, std::ostream* os) {
  *os << "s=" << g.section << " B=" << g.bandwidth << " L=" << g.lines
      << (g.strict ? " strict" : " relaxed") << (g.double_buffer ? " dbuf" : "");
}

class KernelGrid : public ::testing::TestWithParam<GridPoint> {};

TEST_P(KernelGrid, AllKernelsProduceTheExactTranspose) {
  const GridPoint& grid = GetParam();
  vsim::MachineConfig config;
  config.section = grid.section;
  config.stm.bandwidth = grid.bandwidth;
  config.stm.lines = grid.lines;
  config.stm.strict_consecutive_lines = grid.strict;
  config.stm.double_buffer = grid.double_buffer;

  Rng rng(grid.section * 1000 + grid.bandwidth * 10 + grid.lines);
  const Coo coo = random_coo(130, 90, 1100, rng);
  const Coo expected = coo.transposed();
  const kernels::HismStage stage = testing::hism_stage(coo, config.section);

  EXPECT_TRUE(coo_equal(kernels::run_hism_transpose(stage, config).transposed.to_coo(),
                        expected));
  EXPECT_TRUE(coo_equal(
      kernels::run_hism_transpose(stage, config,
                                  kernels::hism_transpose_source(/*split_drain_registers=*/true))
          .transposed.to_coo(),
      expected));
  if (grid.double_buffer) {
    EXPECT_TRUE(coo_equal(
        kernels::run_hism_transpose(stage, config, kernels::hism_transpose_pipelined_source())
            .transposed.to_coo(),
        expected));
  }
  EXPECT_TRUE(coo_equal(
      kernels::run_crs_transpose(testing::crs_stage(coo), config).transposed, expected));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KernelGrid,
    ::testing::Values(GridPoint{8, 1, 1, true, false}, GridPoint{8, 4, 4, true, true},
                      GridPoint{16, 2, 2, false, false}, GridPoint{16, 8, 4, true, true},
                      GridPoint{32, 4, 8, true, false}, GridPoint{64, 1, 1, true, true},
                      GridPoint{64, 4, 4, false, true}, GridPoint{64, 8, 8, true, false},
                      GridPoint{128, 4, 4, true, true}, GridPoint{256, 4, 4, true, false}));

}  // namespace
}  // namespace smtu
