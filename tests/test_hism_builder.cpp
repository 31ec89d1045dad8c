// Differential test of HismMatrix::from_coo against the digit-based builder
// in tests/oracles/hism_reference: the same pools, root id and memory-image
// bytes for the D-SAB suite, every power-of-two section size, both
// high-level orders, non-canonical inputs and edge shapes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hism/image.hpp"
#include "oracles/hism_reference.hpp"
#include "suite/dsab.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

constexpr u32 kSections[] = {2, 4, 8, 16, 32, 64, 128, 256};
constexpr HighLevelOrder kOrders[] = {HighLevelOrder::kRowMajor, HighLevelOrder::kColMajor};

::testing::AssertionResult same_block(const BlockArray& lhs, const BlockArray& rhs) {
  if (lhs.pos == rhs.pos && lhs.slot == rhs.slot && lhs.child_len == rhs.child_len) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "block-arrays differ";
}

// Builds `coo` with both builders and compares everything they produce.
::testing::AssertionResult matches_reference(const Coo& coo, u32 section,
                                             HighLevelOrder order) {
  const HismMatrix built = HismMatrix::from_coo(coo, section, order);
  const HismMatrix reference = reference_hism_from_coo(coo, section, order);
  const std::string where = std::to_string(coo.rows()) + "x" + std::to_string(coo.cols()) +
                            "/" + std::to_string(coo.nnz()) + " s=" + std::to_string(section) +
                            (order == HighLevelOrder::kColMajor ? " col-major" : " row-major");
  if (built.rows() != reference.rows() || built.cols() != reference.cols() ||
      built.num_levels() != reference.num_levels() || built.root_id() != reference.root_id()) {
    return ::testing::AssertionFailure() << where << ": shape, levels or root id differ";
  }
  for (u32 k = 0; k < built.num_levels(); ++k) {
    const auto& pool = built.level(k);
    const auto& reference_pool = reference.level(k);
    if (pool.size() != reference_pool.size()) {
      return ::testing::AssertionFailure() << where << ": level " << k << " pool sizes differ";
    }
    for (usize b = 0; b < pool.size(); ++b) {
      if (!same_block(pool[b], reference_pool[b])) {
        return ::testing::AssertionFailure() << where << ": level " << k << " block " << b
                                             << " differs";
      }
    }
  }
  if (build_hism_image(built, 0x1000).bytes != build_hism_image(reference, 0x1000).bytes) {
    return ::testing::AssertionFailure() << where << ": image bytes differ";
  }
  return ::testing::AssertionSuccess();
}

void expect_matches_everywhere(const Coo& coo) {
  for (const u32 section : kSections) {
    for (const HighLevelOrder order : kOrders) {
      EXPECT_TRUE(matches_reference(coo, section, order));
    }
  }
}

TEST(HismBuilder, MatchesReferenceOnSuiteMatrices) {
  for (const u64 seed : {u64{0xD5ABD5AB}, u64{7919}}) {
    const auto suite = suite::build_dsab_suite({.seed = seed, .scale = 0.02});
    ASSERT_EQ(suite.size(), 30u);
    for (const suite::SuiteMatrix& entry : suite) {
      SCOPED_TRACE(entry.name);
      expect_matches_everywhere(entry.matrix);
    }
  }
}

TEST(HismBuilder, MatchesReferenceOnNonCanonicalInput) {
  // Unsorted entries, duplicate coordinates (some summing to zero) and
  // explicit zeros: both builders canonicalize first.
  Rng rng(0x5eed);
  for (const auto& [rows, cols] : {std::pair<Index, Index>{40, 40}, {300, 90}, {7, 1200}}) {
    Coo coo(rows, cols);
    for (u32 i = 0; i < 600; ++i) {
      const Index row = rng.below(rows);
      const Index col = rng.below(cols);
      const float value = static_cast<float>(rng.range(-3, 3));
      coo.add(row, col, value);
      if (rng.chance(0.2)) coo.add(row, col, -value);
      if (rng.chance(0.2)) coo.add(rng.below(rows), rng.below(cols), 1.5f);
    }
    ASSERT_FALSE(coo.is_canonical());
    expect_matches_everywhere(coo);
  }
}

TEST(HismBuilder, MatchesReferenceOnEdgeShapes) {
  Rng rng(0xED6E);
  const std::pair<Index, Index> shapes[] = {{0, 0},    {5, 0},    {1, 1},  {1, 1000},
                                            {1000, 1}, {70000, 3}, {65, 63}, {4097, 63}};
  for (const auto& [rows, cols] : shapes) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    // Empty, then a single entry in the last cell, then a fifth of the
    // cells (at most 4000).
    expect_matches_everywhere(Coo(rows, cols));
    if (rows == 0 || cols == 0) continue;
    expect_matches_everywhere(testing::make_coo(rows, cols, {{rows - 1, cols - 1, 2.0f}}));
    const u64 cells = rows * cols;
    expect_matches_everywhere(testing::random_coo(rows, cols, std::min<u64>(cells / 5, 4000), rng));
  }
}

}  // namespace
}  // namespace smtu
