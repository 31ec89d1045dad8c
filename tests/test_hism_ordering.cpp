// The paper's free ordering choice for higher hierarchy levels (Fig. 2
// stores level 1 column-wise): both orders must be valid, equivalent in
// content, and transparent to every consumer — serialization, the
// reference transpose, and the simulated kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "hism/image.hpp"
#include "hism/transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/spmv.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

TEST(HismOrdering, ColMajorBuildsValidEquivalentMatrix) {
  Rng rng(1);
  const Coo coo = random_coo(200, 150, 1200, rng);
  const HismMatrix row_major = HismMatrix::from_coo(coo, 8);
  const HismMatrix col_major = HismMatrix::from_coo(coo, 8, HighLevelOrder::kColMajor);
  EXPECT_TRUE(col_major.validate());
  EXPECT_TRUE(coo_equal(col_major.to_coo(), coo));
  EXPECT_EQ(col_major.nnz(), row_major.nnz());
  // Same pool shapes, different entry orderings at levels >= 1.
  for (u32 k = 0; k < col_major.num_levels(); ++k) {
    EXPECT_EQ(col_major.level(k).size(), row_major.level(k).size());
  }
}

TEST(HismOrdering, HigherLevelsAreActuallyColumnMajor) {
  Rng rng(2);
  const Coo coo = random_coo(64, 64, 800, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8, HighLevelOrder::kColMajor);
  ASSERT_EQ(hism.num_levels(), 2u);
  const BlockArray& root = hism.root();
  for (usize i = 1; i < root.size(); ++i) {
    const BlockPos& prev = root.pos[i - 1];
    const BlockPos& cur = root.pos[i];
    EXPECT_TRUE(prev.col != cur.col ? prev.col < cur.col : prev.row < cur.row) << i;
  }
}

TEST(HismOrdering, ImageRoundTripPreservesOrder) {
  Rng rng(3);
  const Coo coo = random_coo(100, 100, 600, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8, HighLevelOrder::kColMajor);
  const HismImage image = build_hism_image(hism, 0x1000);
  const HismMatrix decoded =
      decode_hism_image(image.bytes, image.base, image.root_addr, image.root_len,
                        image.levels, image.section, image.rows, image.cols);
  EXPECT_TRUE(coo_equal(decoded.to_coo(), coo));
}

TEST(HismOrdering, TransposeKernelOrderAgnostic) {
  Rng rng(5);
  const Coo coo = random_coo(120, 90, 800, rng);
  vsim::MachineConfig config;
  config.section = 8;
  const HismMatrix col_major =
      HismMatrix::from_coo(coo, config.section, HighLevelOrder::kColMajor);
  const auto result = kernels::run_hism_transpose(kernels::build_hism_stage(col_major), config);
  EXPECT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()));
  // Timing may differ (the fill stream order differs); content must not.
}

TEST(HismOrdering, SpmvKernelOrderAgnostic) {
  Rng rng(6);
  const Coo coo = random_coo(100, 100, 700, rng);
  vsim::MachineConfig config;
  config.section = 8;
  std::vector<float> x(100);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto row_major =
      kernels::run_hism_spmv(kernels::build_hism_stage(HismMatrix::from_coo(coo, 8)), x, config);
  const auto col_major = kernels::run_hism_spmv(
      kernels::build_hism_stage(HismMatrix::from_coo(coo, 8, HighLevelOrder::kColMajor)), x,
      config);
  ASSERT_EQ(row_major.y.size(), col_major.y.size());
  for (usize i = 0; i < row_major.y.size(); ++i) {
    // Blocks visit in a different order, so float accumulation into shared
    // y cells may round differently; tolerance, not bit equality.
    EXPECT_NEAR(row_major.y[i], col_major.y[i],
                1e-4f * std::max(1.0f, std::fabs(row_major.y[i])))
        << i;
  }
}

TEST(HismOrdering, ReferenceTransposeNormalizesToRowMajor) {
  Rng rng(7);
  const Coo coo = random_coo(80, 80, 500, rng);
  const HismMatrix col_major = HismMatrix::from_coo(coo, 8, HighLevelOrder::kColMajor);
  const HismMatrix t = transposed(col_major);
  EXPECT_TRUE(t.validate());
  EXPECT_TRUE(coo_equal(t.to_coo(), coo.transposed()));
}

TEST(HismOrdering, ValidateRejectsUnsortedLevelZero) {
  // Level 0 must stay row-major: a column-major level-0 block with entries
  // that are not also row-major-sorted is invalid.
  Rng rng(8);
  const Coo coo = random_coo(8, 8, 20, rng);
  HismMatrix hism = HismMatrix::from_coo(coo, 8);
  BlockArray& block = hism.level(0)[0];
  ASSERT_GE(block.size(), 2u);
  std::swap(block.pos[0], block.pos[1]);
  std::swap(block.slot[0], block.slot[1]);
  EXPECT_FALSE(hism.validate());
}

}  // namespace
}  // namespace smtu
