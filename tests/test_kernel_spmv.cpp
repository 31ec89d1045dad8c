// Integration tests for the three SpMV kernels (HiSM positional
// multiply-accumulate, CRS gather-reduce, JD diagonal-parallel), verified
// against the host CSR reference. Float accumulation order differs between
// methods, so comparisons use a relative tolerance.
#include <gtest/gtest.h>

#include <cmath>

#include "formats/csr.hpp"
#include "formats/jagged.hpp"
#include "kernels/spmv.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::random_coo;

std::vector<float> random_x(usize n, u64 seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return x;
}

void expect_near(const std::vector<float>& actual, const std::vector<float>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (usize i = 0; i < actual.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(expected[i]));
    EXPECT_NEAR(actual[i], expected[i], 1e-4f * scale) << "at row " << i;
  }
}

struct AllThree {
  kernels::SpmvResult hism;
  kernels::SpmvResult crs;
  kernels::SpmvResult jd;
  std::vector<float> reference;
};

AllThree run_all(const Coo& coo, const vsim::MachineConfig& config, u64 seed) {
  const std::vector<float> x = random_x(coo.cols(), seed);
  const kernels::CrsStage crs = testing::crs_stage(coo);
  AllThree out;
  out.reference = crs.csr.spmv(x);
  out.hism = kernels::run_hism_spmv(testing::hism_stage(coo, config.section), x, config);
  out.crs = kernels::run_crs_spmv(crs, x, config);
  out.jd = kernels::run_jd_spmv(Jagged::from_coo(coo), x, config);
  return out;
}

TEST(SpmvKernels, SingleBlockMatrix) {
  Rng rng(1);
  vsim::MachineConfig config;
  config.section = 8;
  const Coo coo = random_coo(8, 8, 20, rng);
  const AllThree r = run_all(coo, config, 10);
  expect_near(r.hism.y, r.reference);
  expect_near(r.crs.y, r.reference);
  expect_near(r.jd.y, r.reference);
}

TEST(SpmvKernels, MultiLevelHism) {
  Rng rng(2);
  vsim::MachineConfig config;
  config.section = 8;
  const Coo coo = random_coo(200, 200, 1200, rng);
  const AllThree r = run_all(coo, config, 11);
  expect_near(r.hism.y, r.reference);
  expect_near(r.crs.y, r.reference);
  expect_near(r.jd.y, r.reference);
}

TEST(SpmvKernels, RectangularWide) {
  Rng rng(3);
  vsim::MachineConfig config;
  config.section = 16;
  const Coo coo = random_coo(40, 180, 700, rng);
  const AllThree r = run_all(coo, config, 12);
  expect_near(r.hism.y, r.reference);
  expect_near(r.crs.y, r.reference);
  expect_near(r.jd.y, r.reference);
}

TEST(SpmvKernels, RectangularTall) {
  Rng rng(4);
  vsim::MachineConfig config;
  config.section = 16;
  const Coo coo = random_coo(180, 40, 700, rng);
  const AllThree r = run_all(coo, config, 13);
  expect_near(r.hism.y, r.reference);
  expect_near(r.crs.y, r.reference);
  expect_near(r.jd.y, r.reference);
}

TEST(SpmvKernels, DefaultSection64) {
  Rng rng(5);
  const vsim::MachineConfig config;
  const Coo coo = random_coo(300, 300, 3000, rng);
  const AllThree r = run_all(coo, config, 14);
  expect_near(r.hism.y, r.reference);
  expect_near(r.crs.y, r.reference);
  expect_near(r.jd.y, r.reference);
}

TEST(SpmvKernels, EmptyMatrix) {
  const vsim::MachineConfig config;
  const AllThree r = run_all(Coo(50, 50), config, 15);
  for (const float v : r.hism.y) EXPECT_EQ(v, 0.0f);
  for (const float v : r.crs.y) EXPECT_EQ(v, 0.0f);
  for (const float v : r.jd.y) EXPECT_EQ(v, 0.0f);
}

TEST(SpmvKernels, EmptyRowsProduceZero) {
  Coo coo(64, 64);
  coo.add(10, 20, 2.0f);
  coo.add(50, 3, -1.0f);
  coo.canonicalize();
  const vsim::MachineConfig config;
  const AllThree r = run_all(coo, config, 16);
  expect_near(r.hism.y, r.reference);
  expect_near(r.crs.y, r.reference);
  expect_near(r.jd.y, r.reference);
  EXPECT_EQ(r.hism.y[0], 0.0f);
}

TEST(SpmvKernels, RowsLongerThanSection) {
  Coo coo(4, 256);
  Rng rng(6);
  for (Index r = 0; r < 4; ++r) {
    for (Index c = 0; c < 200; ++c) {
      coo.add(r, c, static_cast<float>(rng.uniform(0.1, 1.0)));
    }
  }
  coo.canonicalize();
  const vsim::MachineConfig config;
  const AllThree r = run_all(coo, config, 17);
  expect_near(r.hism.y, r.reference);
  expect_near(r.crs.y, r.reference);
  expect_near(r.jd.y, r.reference);
}

TEST(SpmvKernels, TransposedProductWithoutTransposing) {
  // y = A^T x via the mirror positional ops — no transposition performed.
  Rng rng(30);
  vsim::MachineConfig config;
  config.section = 8;
  const Coo coo = random_coo(150, 90, 900, rng);
  const std::vector<float> x = random_x(150, 31);

  const auto result =
      kernels::run_hism_spmv_transposed(testing::hism_stage(coo, config.section), x, config);
  const std::vector<float> reference = Csr::from_coo(coo.transposed()).spmv(x);
  expect_near(result.y, reference);
}

TEST(SpmvKernels, TransposedProductMatchesTransposeThenMultiply) {
  Rng rng(32);
  const vsim::MachineConfig config;
  const Coo coo = random_coo(300, 300, 4000, rng);
  const std::vector<float> x = random_x(300, 33);

  const kernels::HismStage hism = testing::hism_stage(coo, config.section);
  const kernels::HismStage hism_t = testing::hism_stage(coo.transposed(), config.section);
  const auto direct = kernels::run_hism_spmv_transposed(hism, x, config);
  const auto two_step = kernels::run_hism_spmv(hism_t, x, config);
  expect_near(direct.y, two_step.y);
  // And it costs about the same as the direct product — the symmetry is free.
  const auto forward = kernels::run_hism_spmv(hism, x, config);
  EXPECT_LT(direct.stats.cycles, 2 * forward.stats.cycles);
}

TEST(SpmvKernels, HismBeatsCrsOnClusteredMatrix) {
  // The companion-paper claim in the paper's introduction: HiSM SpMV is
  // faster than CRS SpMV on a conventional vector machine, markedly so
  // when non-zeros cluster into dense blocks.
  Rng rng(7);
  Coo coo(2048, 2048);
  // 40 dense-ish 32x32 clusters.
  for (const u64 block : rng.sample_without_replacement(64 * 64, 40)) {
    const Index br = (block / 64) * 32;
    const Index bc = (block % 64) * 32;
    for (const u64 cell : rng.sample_without_replacement(1024, 600)) {
      coo.add(br + cell / 32, bc + cell % 32, static_cast<float>(rng.uniform(0.1, 1.0)));
    }
  }
  coo.canonicalize();
  const vsim::MachineConfig config;
  const AllThree r = run_all(coo, config, 18);
  expect_near(r.hism.y, r.reference);
  EXPECT_LT(r.hism.stats.cycles, r.crs.stats.cycles);
  EXPECT_LT(r.hism.stats.cycles, r.jd.stats.cycles);
}

}  // namespace
}  // namespace smtu
