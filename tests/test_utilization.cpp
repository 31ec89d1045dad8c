// Tests of the STM utilization analysis (the quantity behind Fig. 10) and
// its parameter behaviour on controlled matrices.
#include <gtest/gtest.h>

#include "kernels/utilization.hpp"
#include "suite/dsab.hpp"
#include "suite/generators.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using kernels::stm_block_traces;
using kernels::stm_utilization;
using kernels::StmTraceSet;
using kernels::UtilizationBreakdown;

StmConfig stm_config(u32 bandwidth, u32 lines) {
  StmConfig config;
  config.bandwidth = bandwidth;
  config.lines = lines;
  return config;
}

TEST(Utilization, DenseSingleBlockNearOneAtBandwidthOne) {
  // A full 16x16 block at B = 1: 2*256 transfers over 2*256 + 6 cycles.
  Coo coo(16, 16);
  for (Index r = 0; r < 16; ++r) {
    for (Index c = 0; c < 16; ++c) coo.add(r, c, 1.0f);
  }
  coo.canonicalize();
  const StmTraceSet traces = stm_block_traces(HismMatrix::from_coo(coo, 16));
  const UtilizationBreakdown b = stm_utilization(traces, stm_config(1, 4));
  EXPECT_EQ(b.transfers, 512u);
  EXPECT_EQ(b.cycles, 512u + 6u);
  EXPECT_NEAR(b.utilization, 512.0 / 518.0, 1e-9);
}

TEST(Utilization, BlockPenaltyIsTheOnlyLossAtBandwidthOne) {
  // The paper's Fig. 10 commentary: at B = 1 utilization is below 100%
  // only because of the 6-cycle per-block penalty.
  Rng rng(1);
  const Coo coo = suite::gen_random_uniform(128, 128, 2000, rng);
  const StmTraceSet traces = stm_block_traces(HismMatrix::from_coo(coo, 16));
  const UtilizationBreakdown b = stm_utilization(traces, stm_config(1, 4));
  EXPECT_EQ(b.cycles, b.transfers + 6 * b.block_passes);
}

TEST(Utilization, DecreasesWithBandwidth) {
  Rng rng(2);
  const Coo coo = suite::gen_random_uniform(256, 256, 3000, rng);
  const StmTraceSet traces = stm_block_traces(HismMatrix::from_coo(coo, 64));
  double previous = 2.0;
  for (const u32 bandwidth : {1u, 2u, 4u, 8u}) {
    const double u = stm_utilization(traces, stm_config(bandwidth, 4)).utilization;
    EXPECT_LT(u, previous) << "B=" << bandwidth;
    previous = u;
  }
}

TEST(Utilization, IncreasesWithLines) {
  Rng rng(3);
  const Coo coo = suite::gen_random_uniform(256, 256, 3000, rng);
  const StmTraceSet traces = stm_block_traces(HismMatrix::from_coo(coo, 64));
  double previous = 0.0;
  for (const u32 lines : {1u, 2u, 4u, 8u}) {
    const double u = stm_utilization(traces, stm_config(4, lines)).utilization;
    EXPECT_GE(u, previous) << "L=" << lines;
    previous = u;
  }
}

TEST(Utilization, HigherLevelsContributeTwoPasses) {
  Rng rng(4);
  const Coo coo = suite::gen_random_uniform(64, 64, 300, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  const StmTraceSet traces = stm_block_traces(hism);
  ASSERT_EQ(hism.num_levels(), 2u);
  const UtilizationBreakdown b = stm_utilization(traces, stm_config(4, 4));
  // level-0 blocks once, the root twice (lengths + pointers).
  EXPECT_EQ(b.block_passes, hism.level(0).size() + 2u);
}

TEST(Utilization, EmptyMatrixIsZero) {
  const StmTraceSet traces = stm_block_traces(HismMatrix::from_coo(Coo(64, 64), 8));
  const UtilizationBreakdown b = stm_utilization(traces, stm_config(4, 4));
  EXPECT_EQ(b.transfers, 0u);
  EXPECT_EQ(b.utilization, 0.0);
}

TEST(Utilization, DiagonalBlocksBenefitFromLines) {
  // A diagonal block has one element per row/column: with L = 1 every
  // element needs a cycle per phase; L = B = 4 quarters that.
  Rng rng(5);
  const Coo coo = suite::gen_diagonal(64, rng);
  const StmTraceSet traces = stm_block_traces(HismMatrix::from_coo(coo, 64));
  const double narrow = stm_utilization(traces, stm_config(4, 1)).utilization;
  const double wide = stm_utilization(traces, stm_config(4, 4)).utilization;
  EXPECT_GT(wide, 3.0 * narrow);
}

TEST(Utilization, TraceModelMatchesStmUnitOnEverySuiteBlock) {
  // Fig. 10 and the (B, L) sweeps time blocks from their line traces alone;
  // that shortcut must charge what the functional unit charges, for every
  // block of the suite, every Fig. 10 grid point and both line rules.
  std::vector<StmConfig> configs;
  for (const u32 bandwidth : {1u, 2u, 4u, 8u}) {
    for (const u32 lines : {1u, 2u, 4u, 8u}) {
      for (const bool strict : {true, false}) {
        for (const bool skip_empty : {true, false}) {
          StmConfig config = stm_config(bandwidth, lines);
          config.strict_consecutive_lines = strict;
          config.skip_empty_lines = skip_empty;
          configs.push_back(config);
        }
      }
    }
  }
  std::vector<StmUnit> units(configs.begin(), configs.end());

  suite::SuiteOptions options;
  options.scale = 0.05;
  usize blocks = 0;
  for (const suite::SuiteMatrix& entry : suite::build_dsab_suite(options)) {
    const HismMatrix hism = HismMatrix::from_coo(entry.matrix, 64);
    const StmTraceSet traces = stm_block_traces(hism);
    usize next = 0;
    for (u32 level = 0; level < hism.num_levels(); ++level) {
      for (const BlockArray& block : hism.level(level)) {
        if (block.size() == 0) continue;
        ASSERT_LT(next, traces.blocks.size()) << entry.name;
        const StmTraceSet one{traces.section, {traces.blocks[next++]}};
        ASSERT_EQ(one.blocks[0].passes, level > 0 ? 2u : 1u) << entry.name;
        std::vector<StmEntry> entries;
        for (const BlockPos& pos : block.pos) entries.push_back({pos.row, pos.col, 0});
        for (usize c = 0; c < configs.size(); ++c) {
          const u64 unit_cycles = units[c].transpose_block(entries).cycles;
          ASSERT_EQ(stm_utilization(one, configs[c]).cycles, one.blocks[0].passes * unit_cycles)
              << entry.name << " level " << level << " block of " << block.size()
              << " B=" << configs[c].bandwidth << " L=" << configs[c].lines
              << " strict=" << configs[c].strict_consecutive_lines
              << " skip_empty=" << configs[c].skip_empty_lines;
        }
        ++blocks;
      }
    }
    ASSERT_EQ(next, traces.blocks.size()) << entry.name;
  }
  EXPECT_GT(blocks, 1000u);
}

}  // namespace
}  // namespace smtu
