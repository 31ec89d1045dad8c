// The SpMV/SpGEMM kernel suite on the multi-core machine: SELL-C-σ SpMV
// must be bit-identical to the host CSR reference at every core count, the
// Gustavson-on-HiSM SpGEMM bit-identical to the host product reference, and
// SELL must actually pay off against the CRS kernel on irregular rows.
#include <gtest/gtest.h>

#include <bit>

#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "formats/sell.hpp"
#include "kernels/sell_spmv.hpp"
#include "kernels/spgemm.hpp"
#include "kernels/spmv.hpp"
#include "suite/generators.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::make_coo;
using testing::random_coo;

std::vector<float> random_x(Index n, Rng& rng) {
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  return x;
}

void expect_bit_equal(const std::vector<float>& got, const std::vector<float>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (usize i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u32>(got[i]), std::bit_cast<u32>(want[i]))
        << what << " diverges at element " << i << ": " << got[i] << " vs " << want[i];
  }
}

TEST(SellSpmvKernel, BitIdenticalToHostCsrAcrossCoreCounts) {
  Rng rng(21);
  const Coo coo = suite::gen_powerlaw_rows(300, 2400, 1.3, rng);
  const Csr csr = Csr::from_coo(coo);
  const std::vector<float> x = random_x(coo.cols(), rng);
  const std::vector<float> want = csr.spmv(x);

  for (const u32 sigma : {0u, 32u}) {
    const SellCSigma sell = SellCSigma::from_coo(coo, 64, sigma);
    for (const u32 cores : {1u, 2u, 4u, 8u}) {
      vsim::SystemConfig config;
      config.cores = cores;
      const kernels::SellSpmvResult result = kernels::run_sell_spmv(sell, x, config);
      expect_bit_equal(result.y, want, "SELL SpMV");
    }
  }
}

TEST(SellSpmvKernel, HandlesEmptyRowsAndChunkPadding) {
  Rng rng(22);
  // 13 rows (not a multiple of the chunk), several of them empty.
  Coo coo(13, 13);
  coo.add(0, 3, 1.5f);
  coo.add(4, 0, -2.0f);
  coo.add(4, 12, 0.5f);
  coo.add(12, 6, 3.0f);
  coo.canonicalize();
  const std::vector<float> x = random_x(13, rng);
  const std::vector<float> want = Csr::from_coo(coo).spmv(x);
  for (const u32 cores : {1u, 4u}) {
    vsim::SystemConfig config;
    config.cores = cores;
    const SellCSigma sell = SellCSigma::from_coo(coo, 64, 0);
    const kernels::SellSpmvResult result = kernels::run_sell_spmv(sell, x, config);
    expect_bit_equal(result.y, want, "SELL SpMV with empty rows");
  }
}

TEST(SellSpmvKernel, BeatsCrsKernelOnIrregularRows) {
  Rng rng(23);
  const Coo coo = suite::gen_powerlaw_rows(512, 4096, 1.4, rng);
  const std::vector<float> x = random_x(coo.cols(), rng);

  const vsim::MachineConfig machine_config;
  const auto crs = kernels::run_crs_spmv(testing::crs_stage(coo), x, machine_config);

  // C = 16 balances chunk-padding waste (worst at large C on skewed rows)
  // against per-chunk startup overhead (worst at small C); the global sort
  // keeps similar-length rows in the same chunk.
  vsim::SystemConfig config;
  config.cores = 1;
  const SellCSigma sell = SellCSigma::from_coo(coo, 16, 0);
  const auto sellr = kernels::run_sell_spmv(sell, x, config);
  EXPECT_LT(sellr.stats.cycles, crs.stats.cycles)
      << "SELL-C-σ should beat per-row CRS strip-mining on power-law rows";
}

TEST(SpgemmKernel, BitIdenticalToHostReferenceAcrossCoreCounts) {
  Rng rng(24);
  const Coo a = suite::gen_powerlaw_rows(180, 1200, 1.2, rng);
  const Coo bcoo = random_coo(180, 150, 1400, rng);
  const Csr b = Csr::from_coo(bcoo);
  const std::vector<float> want = kernels::spgemm_at_b_reference_dense(a, b);

  for (const u32 cores : {1u, 2u, 4u, 8u}) {
    vsim::SystemConfig config;
    config.cores = cores;
    const kernels::SpgemmResult result = kernels::run_hism_spgemm(a, b, config);
    EXPECT_EQ(result.rows, a.cols());
    EXPECT_EQ(result.cols, b.cols());
    expect_bit_equal(result.dense, want, "SpGEMM");
  }
}

TEST(SpgemmKernel, ProductMatchesCooReferenceAndHandlesEdgeCases) {
  Rng rng(25);
  // Multi-level hierarchy: 180 > 64 forces at least two HiSM levels.
  const Coo a = random_coo(180, 90, 800, rng);
  const Coo bcoo = random_coo(180, 70, 600, rng);
  const Csr b = Csr::from_coo(bcoo);
  vsim::SystemConfig config;
  config.cores = 2;
  const kernels::SpgemmResult result = kernels::run_hism_spgemm(a, b, config);
  EXPECT_TRUE(coo_equal(Dense(result.rows, result.cols, result.dense).to_coo(),
                        kernels::spgemm_at_b_reference(a, b)));

  // Empty A: the product is all zeros.
  const Coo empty_a(180, 90);
  const kernels::SpgemmResult zero = kernels::run_hism_spgemm(empty_a, b, config);
  EXPECT_EQ(Dense(zero.rows, zero.cols, zero.dense).to_coo().nnz(), 0u);
}

TEST(SpgemmKernel, TransposeSemanticsOnASmallKnownProduct) {
  // A = [[1, 2], [0, 3]], B = [[4, 0], [5, 6]];  C = A^T B.
  const Coo a = make_coo(2, 2, {{0, 0, 1.0f}, {0, 1, 2.0f}, {1, 1, 3.0f}});
  const Coo bcoo = make_coo(2, 2, {{0, 0, 4.0f}, {1, 0, 5.0f}, {1, 1, 6.0f}});
  const Csr b = Csr::from_coo(bcoo);
  vsim::SystemConfig config;
  config.cores = 1;
  const kernels::SpgemmResult result = kernels::run_hism_spgemm(a, b, config);
  // A^T = [[1, 0], [2, 3]];  A^T B = [[4, 0], [23, 18]].
  const Coo want =
      make_coo(2, 2, {{0, 0, 4.0f}, {1, 0, 23.0f}, {1, 1, 18.0f}});
  EXPECT_TRUE(coo_equal(Dense(result.rows, result.cols, result.dense).to_coo(), want));
}

}  // namespace
}  // namespace smtu
