// Integration tests: the vectorized CRS (Pissanetsky) transpose kernel of
// Fig. 9 running on the simulated vector processor, verified against the
// pure-C++ reference.
#include <gtest/gtest.h>

#include "kernels/crs_transpose.hpp"
#include "testing.hpp"
#include "vsim/config.hpp"

namespace smtu {
namespace {

using kernels::CrsTransposeResult;
using kernels::run_crs_transpose;
using testing::coo_equal;
using testing::crs_stage;
using testing::make_coo;
using testing::random_coo;

TEST(CrsKernel, TinyMatrix) {
  const Coo coo = make_coo(4, 4, {{0, 1, 1.0f}, {1, 3, 2.0f}, {2, 0, 3.0f}, {3, 2, 4.0f}});
  const vsim::MachineConfig config;
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), config);
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
  EXPECT_GT(result.stats.cycles, 0u);
  EXPECT_EQ(result.stats.stm_blocks, 0u);  // the baseline never touches the STM
}

TEST(CrsKernel, RandomSquare) {
  Rng rng(3);
  const Coo coo = random_coo(200, 200, 1500, rng);
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), {});
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
}

TEST(CrsKernel, RandomRectangularWide) {
  Rng rng(4);
  const Coo coo = random_coo(60, 300, 900, rng);
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), {});
  const Coo expected = coo.transposed();
  EXPECT_EQ(result.transposed.rows(), 300u);
  EXPECT_EQ(result.transposed.cols(), 60u);
  EXPECT_TRUE(coo_equal(result.transposed, expected));
}

TEST(CrsKernel, RandomRectangularTall) {
  Rng rng(5);
  const Coo coo = random_coo(300, 60, 900, rng);
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), {});
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
}

TEST(CrsKernel, RowsLongerThanSection) {
  // Rows of 150 non-zeros strip-mine into multiple segments (s = 64).
  Coo coo(8, 256);
  float v = 0.0f;
  for (Index r = 0; r < 8; ++r) {
    for (Index c = 0; c < 150; ++c) coo.add(r, (c * 3 + r) % 256, v += 1.0f);
  }
  coo.canonicalize();
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), {});
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
}

TEST(CrsKernel, EmptyRowsAndColumns) {
  const Coo coo = make_coo(100, 100, {{0, 99, 1.0f}, {50, 50, 2.0f}, {99, 0, 3.0f}});
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), {});
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
}

TEST(CrsKernel, EmptyMatrix) {
  const Coo coo(32, 32);
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), {});
  EXPECT_EQ(result.transposed.nnz(), 0u);
}

TEST(CrsKernel, DiagonalMatrix) {
  Coo coo(128, 128);
  for (Index i = 0; i < 128; ++i) coo.add(i, i, static_cast<float>(i + 1));
  coo.canonicalize();
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), {});
  EXPECT_TRUE(coo_equal(result.transposed, coo));  // diagonal is self-transpose
}

TEST(CrsKernel, SmallSectionMachine) {
  Rng rng(6);
  const Coo coo = random_coo(90, 90, 400, rng);
  vsim::MachineConfig config;
  config.section = 16;
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), config);
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
}

TEST(ScalarCrsKernel, MatchesReference) {
  Rng rng(20);
  const Coo coo = random_coo(150, 150, 1100, rng);
  const auto result =
      kernels::run_crs_transpose(crs_stage(coo), {}, kernels::scalar_crs_transpose_source());
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
  EXPECT_EQ(result.stats.vector_instructions, 0u);  // pure scalar code
}

TEST(ScalarCrsKernel, MatchesVectorKernelOutput) {
  Rng rng(21);
  const Coo coo = random_coo(80, 120, 700, rng);
  const kernels::CrsStage stage = crs_stage(coo);
  const auto scalar = kernels::run_crs_transpose(stage, {}, kernels::scalar_crs_transpose_source());
  const auto vectorized = kernels::run_crs_transpose(stage, {});
  EXPECT_TRUE(coo_equal(scalar.transposed, vectorized.transposed));
}

TEST(ScalarCrsKernel, EmptyAndEdgeShapes) {
  EXPECT_EQ(kernels::run_crs_transpose(crs_stage(Coo(16, 16)), {},
                                       kernels::scalar_crs_transpose_source())
                .transposed.nnz(),
            0u);
  const Coo single = make_coo(1, 200, {{0, 173, 5.0f}});
  EXPECT_TRUE(coo_equal(
      kernels::run_crs_transpose(crs_stage(single), {}, kernels::scalar_crs_transpose_source())
          .transposed,
      single.transposed()));
}

TEST(ScalarCrsKernel, VectorKernelIsFasterOnLongRows) {
  // The point of the vector machine: on matrices with decent row lengths
  // the vectorized kernel clearly beats the scalar one.
  Coo coo(64, 4096);
  Rng rng(22);
  for (Index r = 0; r < 64; ++r) {
    for (const u64 c : rng.sample_without_replacement(4096, 200)) {
      coo.add(r, c, static_cast<float>(rng.uniform(0.1, 1.0)));
    }
  }
  coo.canonicalize();
  const kernels::CrsStage stage = crs_stage(coo);
  const u64 scalar_cycles =
      kernels::run_crs_transpose(stage, {}, kernels::scalar_crs_transpose_source()).stats.cycles;
  const u64 vector_cycles = kernels::run_crs_transpose(stage, {}).stats.cycles;
  EXPECT_LT(vector_cycles, scalar_cycles);
}

TEST(CrsKernel, MaskedPhase1ProducesSameResult) {
  // The rejected §IV-A variant must still be *correct*.
  Rng rng(23);
  const Coo coo = random_coo(60, 60, 300, rng);
  const auto result = kernels::run_crs_transpose(
      crs_stage(coo), {}, kernels::crs_transpose_source(64, {.masked_phase1 = true}));
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
}

TEST(CrsKernel, ZeroThresholdAllVectorVariantCorrect) {
  Rng rng(24);
  const Coo coo = random_coo(100, 100, 300, rng);
  const auto result = kernels::run_crs_transpose(
      crs_stage(coo), {}, kernels::crs_transpose_source(64, {.short_row_threshold = 0}));
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
}

TEST(CrsKernel, DenseMatrix) {
  Rng rng(8);
  Coo coo(40, 40);
  for (Index r = 0; r < 40; ++r) {
    for (Index c = 0; c < 40; ++c) coo.add(r, c, static_cast<float>(rng.uniform(0.5, 1.5)));
  }
  coo.canonicalize();
  const CrsTransposeResult result = run_crs_transpose(crs_stage(coo), {});
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
}

}  // namespace
}  // namespace smtu
