// Cross-validation of the two independent STM timing implementations: the
// schedule-based engine (stm/unit.cpp) and the cycle-by-cycle
// micro-simulation driving the Non-zero Locator circuit (oracles/microsim.cpp).
// They must agree bit-exactly on drain order and cycle counts across the
// whole (B, L, strict/relaxed, density) parameter space.
#include <gtest/gtest.h>

#include <algorithm>

#include "oracles/microsim.hpp"
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
                       static_cast<u32>(cell * 31 + 7)});
  }
  return entries;  // sorted row-major
}

struct MicrosimCase {
  u32 section;
  u32 bandwidth;
  u32 lines;
  bool strict;
  double density;
  u64 seed;
};

void PrintTo(const MicrosimCase& c, std::ostream* os) {
  *os << "s=" << c.section << " B=" << c.bandwidth << " L=" << c.lines
      << (c.strict ? " strict" : " relaxed") << " d=" << c.density << " seed=" << c.seed;
}

class MicrosimEquivalence : public ::testing::TestWithParam<MicrosimCase> {};

TEST_P(MicrosimEquivalence, DrainMatchesScheduleEngine) {
  const MicrosimCase& param = GetParam();
  StmConfig config;
  config.section = param.section;
  config.bandwidth = param.bandwidth;
  config.lines = param.lines;
  config.strict_consecutive_lines = param.strict;

  const usize count = static_cast<usize>(
      param.density * static_cast<double>(param.section) * param.section);
  const auto entries = random_block(param.section, std::max<usize>(1, count), param.seed);

  StmUnit unit(config);
  const StmUnit::BlockResult engine = unit.transpose_block(entries);
  const MicrosimResult micro = microsim_drain(entries, config);

  EXPECT_EQ(micro.cycles, engine.read_cycles);
  EXPECT_EQ(micro.drained, engine.transposed);
}

TEST_P(MicrosimEquivalence, FillMatchesScheduleEngine) {
  const MicrosimCase& param = GetParam();
  StmConfig config;
  config.section = param.section;
  config.bandwidth = param.bandwidth;
  config.lines = param.lines;
  config.strict_consecutive_lines = param.strict;

  const usize count = static_cast<usize>(
      param.density * static_cast<double>(param.section) * param.section);
  const auto entries = random_block(param.section, std::max<usize>(1, count), param.seed + 1);

  StmUnit unit(config);
  const StmUnit::BlockResult engine = unit.transpose_block(entries);
  EXPECT_EQ(microsim_fill_cycles(entries, config), engine.write_cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MicrosimEquivalence,
    ::testing::Values(MicrosimCase{8, 1, 1, true, 0.3, 1},
                      MicrosimCase{8, 4, 4, true, 0.3, 2},
                      MicrosimCase{8, 4, 2, false, 0.5, 3},
                      MicrosimCase{16, 2, 4, true, 0.1, 4},
                      MicrosimCase{16, 8, 8, true, 0.9, 5},
                      MicrosimCase{32, 4, 1, true, 0.05, 6},
                      MicrosimCase{32, 4, 4, false, 0.2, 7},
                      MicrosimCase{64, 1, 4, true, 0.02, 8},
                      MicrosimCase{64, 4, 4, true, 0.02, 9},
                      MicrosimCase{64, 4, 4, true, 0.6, 10},
                      MicrosimCase{64, 8, 2, false, 0.15, 11},
                      MicrosimCase{128, 4, 8, true, 0.01, 12}));

TEST(Microsim, UnsortedFillStreamStillAgrees) {
  // Fill order is whatever the block-array holds; scramble it.
  StmConfig config;
  config.section = 16;
  config.bandwidth = 4;
  config.lines = 2;
  auto entries = random_block(16, 60, 99);
  Rng rng(123);
  rng.shuffle(entries);

  StmUnit unit(config);
  unit.clear();
  const u32 engine_cycles = unit.write_batch(entries);
  EXPECT_EQ(microsim_fill_cycles(entries, config), engine_cycles);
}

TEST(MicrosimDeathTest, RejectsNoSummaryVariant) {
  StmConfig config;
  config.skip_empty_lines = false;
  const auto entries = random_block(8, 4, 7);
  EXPECT_DEATH(microsim_drain(entries, config), "occupancy-summary");
}

}  // namespace
}  // namespace smtu
