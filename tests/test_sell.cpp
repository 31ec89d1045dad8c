// SELL-C-σ format invariants: round-trip, permutation correctness, chunk
// padding accounting against ELL, and the degenerate corners (σ=1, C larger
// than the row count, empty rows/matrices).
#include <gtest/gtest.h>

#include <bit>
#include <numeric>

#include "formats/csr.hpp"
#include "formats/sell.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::make_coo;
using testing::random_coo;

Coo irregular_coo(Index rows, Index cols, Rng& rng) {
  // A few heavy rows on top of a sparse background: high row-length variance.
  Coo coo = random_coo(rows, cols, rows * 2, rng);
  for (Index r = 0; r < rows; r += 7) {
    for (Index c = 0; c < cols; c += 2) coo.add(r, c, 1.0f + static_cast<float>(c));
  }
  coo.canonicalize();
  return coo;
}

TEST(SellCSigma, RoundTripsRandomMatrices) {
  Rng rng(42);
  for (const u32 sigma : {0u, 1u, 4u, 16u}) {
    for (const u32 chunk : {1u, 4u, 8u}) {
      const Coo coo = random_coo(37, 23, 150, rng);
      const SellCSigma sell = SellCSigma::from_coo(coo, chunk, sigma);
      EXPECT_TRUE(sell.validate());
      EXPECT_TRUE(coo_equal(sell.to_coo(), coo));
    }
  }
}

TEST(SellCSigma, PermutationIsAPermutationSortedByLengthInWindows) {
  Rng rng(7);
  const Coo coo = irregular_coo(64, 48, rng);
  const u32 sigma = 16;
  const SellCSigma sell = SellCSigma::from_coo(coo, 4, sigma);
  ASSERT_TRUE(sell.validate());

  // Every real row appears exactly once.
  std::vector<u32> seen(sell.rows(), 0);
  for (u32 p = 0; p < sell.rows(); ++p) {
    ASSERT_LT(sell.perm()[p], sell.rows());
    ++seen[sell.perm()[p]];
  }
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0u), sell.rows());
  EXPECT_EQ(*std::min_element(seen.begin(), seen.end()), 1u);

  // Inside each σ-window lengths are non-increasing, and rows never leave
  // their window.
  for (u32 p = 0; p + 1 < sell.rows(); ++p) {
    if ((p + 1) % sigma != 0) EXPECT_GE(sell.row_len()[p], sell.row_len()[p + 1]);
    EXPECT_EQ(sell.perm()[p] / sigma, p / sigma);
  }
}

TEST(SellCSigma, SigmaOneKeepsOriginalRowOrder) {
  Rng rng(9);
  const Coo coo = random_coo(20, 20, 60, rng);
  const SellCSigma sell = SellCSigma::from_coo(coo, 4, 1);
  for (u32 p = 0; p < sell.rows(); ++p) EXPECT_EQ(sell.perm()[p], p);
}

TEST(SellCSigma, ChunkLargerThanRowCount) {
  const Coo coo = make_coo(3, 5, {{0, 1, 2.0f}, {1, 0, 3.0f}, {1, 4, 4.0f}, {2, 2, 5.0f}});
  const SellCSigma sell = SellCSigma::from_coo(coo, 8, 0);
  ASSERT_TRUE(sell.validate());
  EXPECT_EQ(sell.num_chunks(), 1u);
  EXPECT_EQ(sell.perm().size(), 8u);  // padded to one full chunk
  EXPECT_EQ(sell.perm()[3], SellCSigma::kPadRow);
  EXPECT_TRUE(coo_equal(sell.to_coo(), coo));
}

TEST(SellCSigma, EmptyRowsAndEmptyMatrix) {
  // Rows 1 and 3 empty.
  const Coo coo = make_coo(5, 4, {{0, 0, 1.0f}, {2, 3, 2.0f}, {4, 1, 3.0f}});
  const SellCSigma sell = SellCSigma::from_coo(coo, 2, 0);
  ASSERT_TRUE(sell.validate());
  EXPECT_TRUE(coo_equal(sell.to_coo(), coo));
  const std::vector<float> x = {1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> y = sell.spmv(x);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[3], 0.0f);

  const SellCSigma empty = SellCSigma::from_coo(Coo(0, 0), 4, 0);
  EXPECT_TRUE(empty.validate());
  EXPECT_EQ(empty.num_chunks(), 0u);
  EXPECT_TRUE(empty.spmv({}).empty());
}

TEST(SellCSigma, PaddingNeverExceedsEllAndGlobalSortNeverExceedsSigmaOne) {
  Rng rng(11);
  const Coo coo = irregular_coo(96, 64, rng);
  // ELL is the C = rows, σ = 1 corner: one chunk padded to the longest row.
  const SellCSigma ell = SellCSigma::from_coo(coo, static_cast<u32>(coo.rows()), 1);
  const u32 chunk = 8;
  const SellCSigma unsorted = SellCSigma::from_coo(coo, chunk, 1);
  const SellCSigma global = SellCSigma::from_coo(coo, chunk, 0);

  // Chunk-local widths can only shrink the slot count versus ELL's global
  // width, and sorting can only shrink it versus not sorting.
  const u64 ell_slots = ell.padded_slots() + ell.nnz();
  EXPECT_LE(unsorted.padded_slots() + unsorted.nnz(), ell_slots);
  EXPECT_LE(global.padded_slots(), unsorted.padded_slots());
  EXPECT_GE(global.fill_ratio(), 1.0);
  EXPECT_LE(global.fill_ratio(), unsorted.fill_ratio());
}

TEST(SellCSigma, HostSpmvIsBitIdenticalToCsr) {
  Rng rng(13);
  for (const u32 sigma : {0u, 1u, 8u}) {
    const Coo coo = irregular_coo(80, 60, rng);
    const SellCSigma sell = SellCSigma::from_coo(coo, 8, sigma);
    const Csr csr = Csr::from_coo(coo);
    std::vector<float> x(coo.cols());
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const std::vector<float> ys = sell.spmv(x);
    const std::vector<float> yc = csr.spmv(x);
    ASSERT_EQ(ys.size(), yc.size());
    for (usize i = 0; i < ys.size(); ++i) {
      EXPECT_EQ(std::bit_cast<u32>(ys[i]), std::bit_cast<u32>(yc[i])) << "row " << i;
    }
  }
}

}  // namespace
}  // namespace smtu
