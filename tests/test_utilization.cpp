// Tests of the STM utilization analysis (the quantity behind Fig. 10) and
// its parameter behaviour on controlled matrices.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "kernels/utilization.hpp"
#include "suite/dsab.hpp"
#include "suite/generators.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using kernels::stm_block_traces;
using kernels::stm_utilization;
using kernels::StmBlockTrace;
using kernels::StmTraceSet;
using kernels::UtilizationBreakdown;

StmConfig stm_config(u32 bandwidth, u32 lines) {
  StmConfig config;
  config.bandwidth = bandwidth;
  config.lines = lines;
  return config;
}

// The runs of a stream's row ids: equal neighbours merged.
std::vector<StmRun> runs_of(const std::vector<StmEntry>& entries) {
  std::vector<StmRun> runs;
  for (const StmEntry& e : entries) {
    if (!runs.empty() && runs.back().line == e.row) {
      ++runs.back().count;
    } else {
      runs.push_back({e.row, 1});
    }
  }
  return runs;
}

// A trace set holding only traces.blocks[index], with its runs copied out.
StmTraceSet one_block(const StmTraceSet& traces, usize index) {
  const StmBlockTrace& block = traces.blocks[index];
  StmTraceSet one;
  one.section = traces.section;
  one.runs.assign(traces.runs.begin() + block.fill, traces.runs.begin() + block.end);
  StmBlockTrace rebased = block;
  rebased.fill = 0;
  rebased.drain = block.drain - block.fill;
  rebased.end = block.end - block.fill;
  one.blocks.push_back(rebased);
  return one;
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
  // Fig. 10 and the (B, L) sweeps time blocks from their line runs alone;
  // that shortcut must charge what the functional unit charges, for every
  // block of the suite, every Fig. 10 grid point and both line rules.
  // Column-major upper levels store their entries column by column, so
  // their fill streams are unsorted.
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
  const std::vector<suite::SuiteMatrix> suite = suite::build_dsab_suite(options);
  for (const HighLevelOrder order : {HighLevelOrder::kRowMajor, HighLevelOrder::kColMajor}) {
    usize blocks = 0;
    usize unsorted_fills = 0;
    for (const suite::SuiteMatrix& entry : suite) {
      SCOPED_TRACE(entry.name + (order == HighLevelOrder::kColMajor ? " col-major" : " row-major"));
      const HismMatrix hism = HismMatrix::from_coo(entry.matrix, 64, order);
      const StmTraceSet traces = stm_block_traces(hism);
      usize next = 0;
      for (u32 level = 0; level < hism.num_levels(); ++level) {
        for (const BlockArray& block : hism.level(level)) {
          if (block.size() == 0) continue;
          ASSERT_LT(next, traces.blocks.size());
          const StmTraceSet one = one_block(traces, next++);
          ASSERT_EQ(one.blocks[0].passes, level > 0 ? 2u : 1u);
          ASSERT_EQ(one.blocks[0].entries, block.size());
          std::vector<StmEntry> entries;
          for (const BlockPos& pos : block.pos) entries.push_back({pos.row, pos.col, 0});
          const std::span<const StmRun> fill = one.fill_runs(one.blocks[0]);
          ASSERT_EQ(std::vector<StmRun>(fill.begin(), fill.end()), runs_of(entries));
          if (!std::is_sorted(block.pos.begin(), block.pos.end(),
                              [](BlockPos a, BlockPos b) { return a.row < b.row; })) {
            ++unsorted_fills;
          }
          for (usize c = 0; c < configs.size(); ++c) {
            const u64 unit_cycles = units[c].transpose_block(entries).cycles;
            ASSERT_EQ(stm_utilization(one, configs[c]).cycles, one.blocks[0].passes * unit_cycles)
                << "level " << level << " block of " << block.size()
                << " B=" << configs[c].bandwidth << " L=" << configs[c].lines
                << " strict=" << configs[c].strict_consecutive_lines
                << " skip_empty=" << configs[c].skip_empty_lines;
          }
          ++blocks;
        }
      }
      ASSERT_EQ(next, traces.blocks.size());
    }
    EXPECT_GT(blocks, 1000u);
    if (order == HighLevelOrder::kColMajor) EXPECT_GT(unsorted_fills, 0u);
  }
}

TEST(Utilization, RunWalkMatchesStmUnitEntryWalk) {
  // stream_cycles takes a stream as runs and skips through them by
  // division; StmUnit::write_batch walks the same stream entry by entry.
  // Seeded unsorted streams of unique positions, plus three shapes: a full
  // line (256 entries at s = 256, more than a u8 count holds), two
  // alternating lines (the relaxed rule counts each switch as a new line)
  // and descending lines (never inside the strict window above the anchor).
  Rng rng(20);
  usize compared = 0;
  for (const u32 s : {2u, 8u, 64u, 256u}) {
    std::vector<std::vector<StmEntry>> streams;
    std::vector<StmEntry> full_line;
    for (u32 col = 0; col < s; ++col) {
      full_line.push_back({static_cast<u8>(s / 2), static_cast<u8>(col), 0});
    }
    streams.push_back(full_line);
    std::vector<StmEntry> alternating;
    for (u32 col = 0; col < s; ++col) {
      alternating.push_back({0, static_cast<u8>(col), 0});
      alternating.push_back({static_cast<u8>(s - 1), static_cast<u8>(col), 0});
    }
    streams.push_back(alternating);
    std::vector<StmEntry> descending;
    for (u32 row = s; row-- > 0;) {
      for (u32 col = 0; col <= row % 5 && col < s; ++col) {
        descending.push_back({static_cast<u8>(row), static_cast<u8>(col), 0});
      }
    }
    streams.push_back(descending);
    for (u32 trial = 0; trial < 12; ++trial) {
      // Runs of random length on random rows, in random row order: the
      // remainder of one run and the head of the next share cycles.
      std::vector<std::vector<u8>> free_cols(s);
      for (u32 row = 0; row < s; ++row) {
        for (u32 col = 0; col < s; ++col) free_cols[row].push_back(static_cast<u8>(col));
        rng.shuffle(free_cols[row]);
      }
      const u32 max_run = trial % 3 == 0 ? 1 : trial % 3 == 1 ? 4 : s;
      const u64 target = rng.range(1, static_cast<i64>(std::min(s * s, 4 * s)));
      std::vector<StmEntry> stream;
      while (stream.size() < target) {
        const u32 row = static_cast<u32>(rng.below(s));
        const u64 run = rng.range(1, max_run);
        for (u64 k = 0; k < run && !free_cols[row].empty(); ++k) {
          stream.push_back({static_cast<u8>(row), free_cols[row].back(), 0});
          free_cols[row].pop_back();
        }
      }
      streams.push_back(stream);
    }
    for (const u32 bandwidth : {1u, 2u, 3u, 4u, 8u, s}) {
      for (const u32 lines : {1u, 2u, 3u, 4u, 8u}) {
        if (lines > s) continue;
        for (const bool strict : {true, false}) {
          StmConfig config = stm_config(bandwidth, lines);
          config.section = s;
          config.strict_consecutive_lines = strict;
          StmUnit unit(config);
          for (usize i = 0; i < streams.size(); ++i) {
            // write_cycles is what write_batch returned for the stream.
            ASSERT_EQ(stream_cycles(runs_of(streams[i]), config),
                      unit.transpose_block(streams[i]).write_cycles)
                << "s=" << s << " B=" << bandwidth << " L=" << lines << " strict=" << strict
                << " stream " << i << " of " << streams[i].size() << " entries";
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 1000u);
}

// The traces of a 16 x 16 diagonal at s = 8.
StmTraceSet diagonal_traces() {
  Coo coo(16, 16);
  for (Index i = 0; i < 16; ++i) coo.add(i, i, 1.0f);
  coo.canonicalize();
  return stm_block_traces(HismMatrix::from_coo(coo, 8));
}

TEST(UtilizationDeathTest, ZeroBandwidthAborts) {
  // A bandwidth of 0 would never move an entry.
  const StmTraceSet traces = diagonal_traces();
  EXPECT_DEATH(stm_utilization(traces, stm_config(0, 4)), "buffer bandwidth must be positive");
}

TEST(UtilizationDeathTest, LinesOutsideOneToSectionAbort) {
  // 0 accessible lines would never move an entry; more than s lines do not
  // exist. The traces' section (8) is the bound, not StmConfig's default.
  const StmTraceSet traces = diagonal_traces();
  EXPECT_DEATH(stm_utilization(traces, stm_config(4, 0)), "accessible lines must be in");
  EXPECT_DEATH(stm_utilization(traces, stm_config(4, 9)), "accessible lines must be in");
}

}  // namespace
}  // namespace smtu
