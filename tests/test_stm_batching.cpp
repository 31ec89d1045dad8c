// Batch-boundary properties of the STM engines: splitting a block's fill or
// drain into arbitrary batches (the strip-mined v_stcr/v_ldcc pattern)
// changes cycle counts only at batch seams, never the drained content; the
// unit's lifetime statistics stay coherent across blocks and banks.
#include <gtest/gtest.h>

#include <algorithm>

#include "stm/unit.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace smtu {
namespace {

std::vector<StmEntry> random_block(u32 section, usize count, u64 seed) {
  Rng rng(seed);
  std::vector<StmEntry> entries;
  for (const u64 cell :
       rng.sample_without_replacement(static_cast<u64>(section) * section, count)) {
    entries.push_back({static_cast<u8>(cell / section), static_cast<u8>(cell % section),
                       static_cast<u32>(cell * 5 + 3)});
  }
  return entries;
}

StmConfig config_with(u32 bandwidth, u32 lines) {
  StmConfig config;
  config.bandwidth = bandwidth;
  config.lines = lines;
  return config;
}

TEST(StmBatching, SplitFillsAddAtMostOneCyclePerSeam) {
  const auto entries = random_block(64, 600, 1);
  const StmConfig config = config_with(4, 4);

  StmUnit whole(config);
  whole.clear();
  const u32 whole_cycles = whole.write_batch(entries);

  for (const usize batch_size : {usize{1}, usize{7}, usize{64}, usize{100}}) {
    StmUnit split(config);
    split.clear();
    u32 split_cycles = 0;
    usize seams = 0;
    for (usize at = 0; at < entries.size(); at += batch_size) {
      const usize take = std::min(batch_size, entries.size() - at);
      split_cycles += split.write_batch(
          std::span<const StmEntry>(entries).subspan(at, take));
      ++seams;
    }
    EXPECT_GE(split_cycles, whole_cycles) << "batch=" << batch_size;
    EXPECT_LE(split_cycles, whole_cycles + seams) << "batch=" << batch_size;
  }
}

TEST(StmBatching, DrainBatchSplitIsExactlyCycleNeutral) {
  // The drain schedule is frozen once, so batch boundaries never add cycles.
  const auto entries = random_block(64, 500, 2);
  const StmConfig config = config_with(4, 4);

  StmUnit whole(config);
  const u32 whole_read = whole.transpose_block(entries).read_cycles;

  StmUnit split(config);
  split.clear();
  split.write_batch(entries);
  Rng rng(3);
  u32 split_read = 0;
  u32 remaining = static_cast<u32>(entries.size());
  while (remaining > 0) {
    const u32 take = static_cast<u32>(rng.range(1, std::min<i64>(remaining, 90)));
    split_read += split.read_batch(take).cycles;
    remaining -= take;
  }
  EXPECT_EQ(split_read, whole_read);
}

TEST(StmBatching, DrainOrderIndependentOfBatching) {
  const auto entries = random_block(32, 300, 4);
  const StmConfig config = config_with(2, 2);

  StmUnit whole(config);
  const auto expected = whole.transpose_block(entries).transposed;

  StmUnit split(config);
  split.clear();
  split.write_batch(entries);
  std::vector<StmEntry> drained;
  u32 remaining = static_cast<u32>(entries.size());
  while (remaining > 0) {
    const u32 take = std::min<u32>(32, remaining);
    const auto batch = split.read_batch(take);
    drained.insert(drained.end(), batch.entries.begin(), batch.entries.end());
    remaining -= take;
  }
  EXPECT_EQ(drained, expected);
}

TEST(StmBatching, StatsCoherentAcrossManyBlocks) {
  const StmConfig config = config_with(4, 4);
  StmUnit unit(config);
  u64 expected_in = 0;
  for (int block = 0; block < 20; ++block) {
    const auto entries = random_block(16, 40 + block, 100 + block);
    unit.transpose_block(entries);
    expected_in += entries.size();
  }
  EXPECT_EQ(unit.stats().blocks, 20u);
  EXPECT_EQ(unit.stats().elements_in, expected_in);
  EXPECT_EQ(unit.stats().elements_out, expected_in);
  // Each phase moves at most B = 4 elements per cycle and at least one.
  EXPECT_GE(unit.stats().write_cycles, ceil_div(expected_in, 4));
  EXPECT_LE(unit.stats().write_cycles, expected_in);
  EXPECT_GE(unit.stats().read_cycles, ceil_div(expected_in, 4));
  EXPECT_LE(unit.stats().read_cycles, expected_in);
}

TEST(StmBatching, DoubleBufferBanksInterleaveCorrectly) {
  StmConfig config = config_with(4, 4);
  config.double_buffer = true;
  StmUnit unit(config);

  const auto block_a = random_block(16, 60, 10);
  const auto block_b = random_block(16, 70, 11);

  // fill A, switch, fill B while draining A, then drain B.
  unit.clear();
  unit.write_batch(block_a);
  unit.clear();  // ping-pong: A moves to the drain side
  unit.write_batch(block_b);

  const auto drained_a = unit.read_batch(static_cast<u32>(block_a.size()));
  const auto drained_b = unit.read_batch(static_cast<u32>(block_b.size()));
  EXPECT_NE(drained_a.bank, drained_b.bank);

  auto sorted_transposed = [](std::vector<StmEntry> entries) {
    for (StmEntry& e : entries) std::swap(e.row, e.col);
    std::sort(entries.begin(), entries.end(), [](const StmEntry& a, const StmEntry& b) {
      return a.row != b.row ? a.row < b.row : a.col < b.col;
    });
    return entries;
  };
  // ReadBatch::entries is a view into the unit's drain buffer; materialize
  // before comparing.
  const std::vector<StmEntry> got_a(drained_a.entries.begin(), drained_a.entries.end());
  const std::vector<StmEntry> got_b(drained_b.entries.begin(), drained_b.entries.end());
  EXPECT_EQ(got_a, sorted_transposed(block_a));
  EXPECT_EQ(got_b, sorted_transposed(block_b));
}

TEST(StmBatchingDeathTest, DoubleBufferIcmGuardsUndrainedBank) {
  StmConfig config = config_with(4, 4);
  config.double_buffer = true;
  StmUnit unit(config);
  unit.clear();
  unit.write_batch(random_block(16, 30, 20));
  unit.clear();  // fine: the other bank is empty
  unit.write_batch(random_block(16, 30, 21));
  // Both banks now hold undrained blocks; a third icm must refuse.
  EXPECT_DEATH(unit.clear(), "undrained");
}

}  // namespace
}  // namespace smtu
