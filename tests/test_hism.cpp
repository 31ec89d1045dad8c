#include <gtest/gtest.h>

#include "hism/hism.hpp"
#include "hism/stats.hpp"
#include "hism/transpose.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::make_coo;
using testing::random_coo;

TEST(Hism, SingleLevelWhenMatrixFitsOneBlock) {
  const Coo coo = make_coo(8, 8, {{1, 2, 3.0f}});
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  EXPECT_EQ(hism.num_levels(), 1u);
  EXPECT_TRUE(hism.validate());
  EXPECT_TRUE(coo_equal(hism.to_coo(), coo));
}

TEST(Hism, LevelCountMatchesPaperFormula) {
  // q = max(ceil(log_s M), ceil(log_s N)).
  Rng rng(1);
  EXPECT_EQ(HismMatrix::from_coo(random_coo(64, 64, 10, rng), 8).num_levels(), 2u);
  EXPECT_EQ(HismMatrix::from_coo(random_coo(65, 8, 10, rng), 8).num_levels(), 3u);
  EXPECT_EQ(HismMatrix::from_coo(random_coo(8, 513, 10, rng), 8).num_levels(), 4u);
  EXPECT_EQ(HismMatrix::from_coo(random_coo(4096, 4096, 10, rng), 64).num_levels(), 2u);
  // At the level boundaries of s = 64, and at least one level when empty.
  EXPECT_EQ(HismMatrix::from_coo(Coo(1, 1), 64).num_levels(), 1u);
  EXPECT_EQ(HismMatrix::from_coo(Coo(64, 1), 64).num_levels(), 1u);
  EXPECT_EQ(HismMatrix::from_coo(Coo(65, 1), 64).num_levels(), 2u);
  EXPECT_EQ(HismMatrix::from_coo(Coo(1, 4097), 64).num_levels(), 3u);
}

TEST(Hism, RoundTripRandom) {
  Rng rng(2);
  const Coo coo = random_coo(100, 140, 700, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 16);
  EXPECT_TRUE(hism.validate());
  EXPECT_EQ(hism.nnz(), coo.nnz());
  EXPECT_TRUE(coo_equal(hism.to_coo(), coo));
}

TEST(Hism, BlockEntriesAreRowMajor) {
  Rng rng(3);
  const HismMatrix hism = HismMatrix::from_coo(random_coo(50, 50, 400, rng), 8);
  for (u32 k = 0; k < hism.num_levels(); ++k) {
    for (const BlockArray& block : hism.level(k)) {
      for (usize i = 1; i < block.size(); ++i) {
        const BlockPos& prev = block.pos[i - 1];
        const BlockPos& cur = block.pos[i];
        EXPECT_TRUE(prev.row < cur.row || (prev.row == cur.row && prev.col < cur.col));
      }
    }
  }
}

TEST(Hism, PositionsFitEightBits) {
  // s <= 256 keeps block positions in one byte each — the format's storage
  // claim in §II.
  Rng rng(4);
  const HismMatrix hism = HismMatrix::from_coo(random_coo(700, 700, 900, rng), 256);
  EXPECT_TRUE(hism.validate());
  EXPECT_TRUE(coo_equal(hism.to_coo(), hism.to_coo()));
}

TEST(Hism, RejectsOversizedSection) {
  EXPECT_DEATH(HismMatrix::from_coo(Coo(4, 4), 257), "section");
  // Block coordinates are shifts and masks: s must be a power of two.
  EXPECT_DEATH(HismMatrix::from_coo(Coo(4, 4), 48), "power of two");
}

TEST(Hism, RejectsKeysWiderThan64Bits) {
  // 2^40 at s = 64 needs 7 levels of 12 key bits each: 84 bits.
  Coo coo(Index{1} << 40, Index{1} << 40);
  coo.add(Index{1} << 36, 0, 1.0f);
  coo.add(0, 1, 2.0f);
  EXPECT_DEATH(HismMatrix::from_coo(coo, 64), "dimension of 1099511627776 at s = 64");
}

TEST(Hism, BlockTransposedSwapsAndSorts) {
  BlockArray block;
  block.pos = {{0, 3}, {1, 0}, {1, 2}};
  block.slot = {10, 20, 30};
  const BlockArray t = block_transposed(block);
  ASSERT_EQ(t.size(), 3u);
  // New positions (3,0), (0,1), (2,1) sorted row-major: (0,1), (2,1), (3,0).
  EXPECT_EQ(t.pos[0], (BlockPos{0, 1}));
  EXPECT_EQ(t.slot[0], 20u);
  EXPECT_EQ(t.pos[1], (BlockPos{2, 1}));
  EXPECT_EQ(t.slot[1], 30u);
  EXPECT_EQ(t.pos[2], (BlockPos{3, 0}));
  EXPECT_EQ(t.slot[2], 10u);
}

TEST(Hism, TransposeMatchesCooTranspose) {
  Rng rng(5);
  const Coo coo = random_coo(200, 90, 1000, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 16);
  const HismMatrix t = transposed(hism);
  EXPECT_TRUE(t.validate());
  EXPECT_EQ(t.rows(), coo.cols());
  EXPECT_EQ(t.cols(), coo.rows());
  EXPECT_TRUE(coo_equal(t.to_coo(), coo.transposed()));
}

TEST(Hism, DoubleTransposeIsIdentity) {
  Rng rng(6);
  const Coo coo = random_coo(120, 120, 800, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  EXPECT_TRUE(coo_equal(transposed(transposed(hism)).to_coo(), coo));
}

TEST(Hism, EmptyMatrix) {
  const HismMatrix hism = HismMatrix::from_coo(Coo(100, 100), 8);
  EXPECT_TRUE(hism.validate());
  EXPECT_EQ(hism.nnz(), 0u);
  EXPECT_EQ(hism.root().size(), 0u);
  EXPECT_TRUE(coo_equal(hism.to_coo(), Coo(100, 100)));
}

TEST(HismStats, CountsAndOverhead) {
  Rng rng(7);
  const Coo coo = random_coo(512, 512, 3000, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 64);
  const HismStats stats = compute_stats(hism);
  EXPECT_EQ(stats.nnz, 3000u);
  EXPECT_EQ(stats.levels, 2u);
  EXPECT_EQ(stats.entries_per_level[0], 3000u);
  // Level-1 entries = number of non-empty level-0 blocks.
  EXPECT_EQ(stats.entries_per_level[1], stats.blocks_per_level[0]);
  EXPECT_GT(stats.storage_bytes, stats.level0_bytes);
  EXPECT_GT(stats.avg_block_fill, 0.0);
  EXPECT_LT(stats.overhead_fraction, 0.5);
}

TEST(HismStats, DenseMatrixOverheadIsSmall) {
  // §IV-A: higher-level storage is ~2-5% for s = 64 on typical matrices.
  Coo coo(256, 256);
  for (Index r = 0; r < 256; ++r) {
    for (Index c = 0; c < 256; ++c) coo.add(r, c, 1.0f);
  }
  coo.canonicalize();
  const HismStats stats = compute_stats(HismMatrix::from_coo(coo, 64));
  EXPECT_LT(stats.overhead_fraction, 0.01);
}

}  // namespace
}  // namespace smtu
