#include <gtest/gtest.h>

#include "formats/coo.hpp"
#include "oracles/coo_reference.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::make_coo;
using testing::messy_entries;
using testing::mirrored;
using testing::random_coo;
using testing::reference_canonical;
using testing::same_entries;

TEST(Coo, CanonicalizeSortsRowMajor) {
  Coo coo(4, 4);
  coo.add(2, 1, 1.0f);
  coo.add(0, 3, 2.0f);
  coo.add(0, 1, 3.0f);
  coo.canonicalize();
  ASSERT_EQ(coo.nnz(), 3u);
  EXPECT_EQ(coo.entries()[0], (CooEntry{0, 1, 3.0f}));
  EXPECT_EQ(coo.entries()[1], (CooEntry{0, 3, 2.0f}));
  EXPECT_EQ(coo.entries()[2], (CooEntry{2, 1, 1.0f}));
  EXPECT_TRUE(coo.is_canonical());
}

TEST(Coo, CanonicalizeMergesDuplicates) {
  Coo coo(2, 2);
  coo.add(1, 1, 2.0f);
  coo.add(1, 1, 3.0f);
  coo.canonicalize();
  ASSERT_EQ(coo.nnz(), 1u);
  EXPECT_FLOAT_EQ(coo.entries()[0].value, 5.0f);
}

TEST(Coo, CanonicalizeDropsCancellingDuplicates) {
  Coo coo(2, 2);
  coo.add(0, 0, 2.0f);
  coo.add(0, 0, -2.0f);
  coo.add(1, 0, 1.0f);
  coo.canonicalize();
  ASSERT_EQ(coo.nnz(), 1u);
  EXPECT_EQ(coo.entries()[0].row, 1u);
}

TEST(Coo, CanonicalizeIsIdempotent) {
  Rng rng(1);
  Coo coo = random_coo(20, 20, 50, rng);
  const auto once = coo.entries();
  coo.canonicalize();
  EXPECT_EQ(coo.entries(), once);
}

TEST(Coo, TransposeSwapsDimsAndCoords) {
  const Coo coo = make_coo(2, 5, {{0, 4, 1.0f}, {1, 2, 2.0f}});
  const Coo t = coo.transposed();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 2u);
  ASSERT_EQ(t.nnz(), 2u);
  EXPECT_EQ(t.entries()[0], (CooEntry{2, 1, 2.0f}));
  EXPECT_EQ(t.entries()[1], (CooEntry{4, 0, 1.0f}));
}

TEST(Coo, DoubleTransposeIsIdentity) {
  Rng rng(2);
  const Coo coo = random_coo(17, 23, 80, rng);
  EXPECT_TRUE(structurally_equal(coo.transposed().transposed(), coo));
}

TEST(Coo, StructuralEqualityIgnoresEntryOrder) {
  Coo a(3, 3);
  a.add(0, 0, 1.0f);
  a.add(2, 2, 2.0f);
  Coo b(3, 3);
  b.add(2, 2, 2.0f);
  b.add(0, 0, 1.0f);
  EXPECT_TRUE(structurally_equal(a, b));
}

TEST(Coo, StructuralInequalityOnValue) {
  const Coo a = make_coo(2, 2, {{0, 0, 1.0f}});
  const Coo b = make_coo(2, 2, {{0, 0, 2.0f}});
  EXPECT_FALSE(structurally_equal(a, b));
}

TEST(Coo, StructuralInequalityOnShape) {
  const Coo a = make_coo(2, 3, {{0, 0, 1.0f}});
  const Coo b = make_coo(3, 2, {{0, 0, 1.0f}});
  EXPECT_FALSE(structurally_equal(a, b));
}

TEST(Coo, AvgNnzPerRow) {
  const Coo coo = make_coo(4, 4, {{0, 0, 1.0f}, {0, 1, 1.0f}, {1, 0, 1.0f}, {3, 3, 1.0f}});
  EXPECT_DOUBLE_EQ(coo.avg_nnz_per_row(), 1.0);
}

// ---- canonical order against the comparison-sort oracle -------------------

struct Shape {
  Index rows;
  Index cols;
  usize cells;
};

// Counting-order shapes (both dimensions a few times nnz at most), the
// degenerate ones, and shapes that take the comparison sort: a hypersparse
// square, and a single row and column of 2^30.
constexpr Shape kShapes[] = {
    {40, 30, 500}, {7, 200, 300},  {200, 7, 300},         {1, 300, 120},
    {300, 1, 120}, {1, 1, 1},      {5, 5, 0},             {1000, 1000, 20},
    {1, 1u << 30, 200},            {1u << 30, 1, 200},
};

TEST(CooCanonicalOrder, CanonicalizeMatchesTheOracle) {
  for (const u64 seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    for (const Shape& shape : kShapes) {
      const std::vector<CooEntry> entries = messy_entries(shape.rows, shape.cols, shape.cells, rng);
      const std::vector<CooEntry> want = reference_canonical(entries);
      const Coo messy(shape.rows, shape.cols, entries);
      Coo coo = messy;
      coo.canonicalize();
      EXPECT_TRUE(same_entries(coo.entries(), want))
          << shape.rows << "x" << shape.cols << " seed " << seed;
      EXPECT_TRUE(coo.is_canonical());
      // Equal entry lists, and a list against its canonical form.
      EXPECT_TRUE(structurally_equal(messy, messy));
      EXPECT_TRUE(structurally_equal(messy, Coo(shape.rows, shape.cols, want)));
    }
  }
}

TEST(CooCanonicalOrder, TransposedMatchesTheOracle) {
  for (const u64 seed : {4u, 5u}) {
    Rng rng(seed);
    for (const Shape& shape : kShapes) {
      const std::vector<CooEntry> entries = messy_entries(shape.rows, shape.cols, shape.cells, rng);
      const std::vector<CooEntry> canonical = reference_canonical(entries);
      const std::vector<CooEntry> want = reference_canonical(mirrored(entries));
      // Non-canonical input mirrors and canonicalizes; canonical input takes
      // the column scatter where its shape allows.
      for (const Coo& coo :
           {Coo(shape.rows, shape.cols, entries), Coo(shape.rows, shape.cols, canonical)}) {
        const Coo t = coo.transposed();
        EXPECT_EQ(t.rows(), shape.cols);
        EXPECT_EQ(t.cols(), shape.rows);
        EXPECT_TRUE(same_entries(t.entries(), want))
            << shape.rows << "x" << shape.cols << " seed " << seed;
      }
    }
  }
}

TEST(CooCanonicalOrder, ThreeDuplicatesMergeInInputOrder) {
  // Float addition does not associate: (3 + 2^24) rounds to 2^24 + 4, so
  // summing in input order gives (3 + 2^24) - 2^24 = 4, where any order that
  // adds 2^24 - 2^24 first gives 3. Both a counting shape and a hypersparse
  // one (comparison sort) must give 4.
  constexpr float kBig = 16777216.0f;
  for (const Index cols : {Index{4}, Index{1} << 30}) {
    Coo coo(2, cols);
    coo.add(1, 2, 3.0f);
    coo.add(0, 1, 5.0f);
    coo.add(1, 2, kBig);
    coo.add(1, 0, 7.0f);
    coo.add(1, 2, -kBig);
    coo.canonicalize();
    ASSERT_EQ(coo.nnz(), 3u) << cols;
    EXPECT_EQ(coo.entries()[2], (CooEntry{1, 2, 4.0f})) << cols;
  }
}

TEST(CooDeathTest, OutOfBoundsEntryAborts) {
  Coo coo(2, 2);
  EXPECT_DEATH(coo.add(2, 0, 1.0f), "out of bounds");
}

TEST(CooDeathTest, CountingOrderOfAnEntryWrittenPastTheShapeAborts) {
  // entries() bypasses add()'s check, as a read-back of corrupt kernel
  // output does; the counting passes must not index past their counters.
  Coo coo = make_coo(4, 4, {{0, 0, 1.0f}, {1, 1, 2.0f}, {2, 2, 3.0f}});
  coo.entries().push_back({0, 9, 4.0f});
  EXPECT_DEATH(coo.canonicalize(), "outside the matrix");
  coo.entries().back() = {3, 0, 4.0f};
  coo.entries().push_back({0, 3, 5.0f});
  coo.entries().front().row = 9;
  EXPECT_DEATH(coo.canonicalize(), "outside the matrix");
}

}  // namespace
}  // namespace smtu
