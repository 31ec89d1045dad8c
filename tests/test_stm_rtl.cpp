// The RTL pipeline model vs the schedule engine: identical transposed
// output and cycle counts, with the 3+3-cycle pipeline tails emerging from
// explicit stage registers instead of being added as constants.
#include <gtest/gtest.h>

#include "oracles/rtl.hpp"
#include "stm/unit.hpp"
#include "support/rng.hpp"

namespace smtu {
namespace {

std::vector<StmEntry> random_block(u32 section, usize count, u64 seed) {
  Rng rng(seed);
  std::vector<StmEntry> entries;
  for (const u64 cell :
       rng.sample_without_replacement(static_cast<u64>(section) * section, count)) {
    entries.push_back({static_cast<u8>(cell / section), static_cast<u8>(cell % section),
                       static_cast<u32>(cell + 1)});
  }
  return entries;
}

StmConfig make_config(u32 section, u32 bandwidth, u32 lines, bool strict = true) {
  StmConfig config;
  config.section = section;
  config.bandwidth = bandwidth;
  config.lines = lines;
  config.strict_consecutive_lines = strict;
  return config;
}

TEST(StmRtl, SingleElementLatencyIsThreePlusThree) {
  // One element: one accept cycle + 3 pipeline stages to commit, one
  // extract cycle + 3 stages to deliver: 1+3 + 1+3 = 8 total — exactly the
  // engine's W + R + 6 with W = R = 1.
  const auto entries = random_block(8, 1, 1);
  const auto result = StmRtl::run_block(entries, make_config(8, 4, 4));
  EXPECT_EQ(result.fill_cycles, 1u);
  EXPECT_EQ(result.drain_cycles, 1u);
  EXPECT_EQ(result.cycles, 8u);
}

TEST(StmRtl, PipelineMustDrainBeforeRead) {
  StmConfig config = make_config(8, 4, 4);
  StmRtl rtl(config);
  const auto entries = random_block(8, 4, 2);
  rtl.offer(entries);
  // Fill still in flight: the s x s memory cannot be read back yet (§III).
  EXPECT_DEATH(rtl.begin_drain(), "fill pipeline");
}

struct RtlCase {
  u32 section;
  u32 bandwidth;
  u32 lines;
  bool strict;
  usize count;
  u64 seed;
};

void PrintTo(const RtlCase& c, std::ostream* os) {
  *os << "s=" << c.section << " B=" << c.bandwidth << " L=" << c.lines
      << (c.strict ? " strict" : " relaxed") << " n=" << c.count;
}

class RtlEquivalence : public ::testing::TestWithParam<RtlCase> {};

TEST_P(RtlEquivalence, MatchesScheduleEngineExactly) {
  const RtlCase& param = GetParam();
  const StmConfig config =
      make_config(param.section, param.bandwidth, param.lines, param.strict);
  const auto entries = random_block(param.section, param.count, param.seed);

  StmUnit unit(config);
  const StmUnit::BlockResult engine = unit.transpose_block(entries);
  const StmRtl::Result rtl = StmRtl::run_block(entries, config);

  EXPECT_EQ(rtl.transposed, engine.transposed);
  EXPECT_EQ(rtl.fill_cycles, engine.write_cycles);
  EXPECT_EQ(rtl.drain_cycles, engine.read_cycles);
  EXPECT_EQ(rtl.cycles, engine.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtlEquivalence,
    ::testing::Values(RtlCase{8, 1, 1, true, 10, 1}, RtlCase{8, 4, 4, true, 20, 2},
                      RtlCase{16, 2, 2, true, 60, 3}, RtlCase{16, 4, 2, false, 90, 4},
                      RtlCase{32, 4, 4, true, 200, 5}, RtlCase{64, 4, 4, true, 50, 6},
                      RtlCase{64, 8, 8, true, 1000, 7}, RtlCase{64, 1, 4, true, 64, 8},
                      RtlCase{64, 4, 1, false, 300, 9}));

TEST(StmRtl, GridHoldsBlockBetweenPhases) {
  const StmConfig config = make_config(16, 4, 4);
  const auto entries = random_block(16, 40, 11);
  StmRtl rtl(config);
  usize index = 0;
  while (index < entries.size() || !rtl.pipeline_empty()) {
    if (index < entries.size()) {
      index += rtl.offer(std::span<const StmEntry>(entries).subspan(index));
    }
    rtl.step();
  }
  EXPECT_EQ(rtl.grid().occupancy(), entries.size());
}

TEST(StmRtlDeathTest, DoubleOfferWithoutStepAborts) {
  StmRtl rtl(make_config(8, 2, 2));
  const auto entries = random_block(8, 6, 12);
  rtl.offer(entries);
  EXPECT_DEATH(rtl.offer(entries), "one offer");
}

}  // namespace
}  // namespace smtu
