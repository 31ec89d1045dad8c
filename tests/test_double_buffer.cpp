// The double-buffered STM variant (extension E4) must never change
// architectural results, never slow anything down, and must preserve the
// fill-before-drain ordering per block.
#include <gtest/gtest.h>

#include "kernels/hism_transpose.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

// The unmodified kernel with its drains on vr3/vr4, and the pipelined one.
kernels::HismTransposeResult run_split(const kernels::HismStage& stage,
                                       const vsim::MachineConfig& config) {
  return kernels::run_hism_transpose(
      stage, config, kernels::hism_transpose_source(/*split_drain_registers=*/true));
}

kernels::HismTransposeResult run_pipelined(const kernels::HismStage& stage,
                                           const vsim::MachineConfig& config) {
  return kernels::run_hism_transpose(stage, config, kernels::hism_transpose_pipelined_source());
}

TEST(DoubleBuffer, ResultsIdentical) {
  Rng rng(1);
  const Coo coo = random_coo(200, 200, 2000, rng);
  vsim::MachineConfig config;
  const kernels::HismStage stage = testing::hism_stage(coo, config.section);

  config.stm.double_buffer = false;
  const auto single = run_split(stage, config);
  config.stm.double_buffer = true;
  const auto twin = run_split(stage, config);

  EXPECT_TRUE(coo_equal(single.transposed.to_coo(), coo.transposed()));
  EXPECT_TRUE(coo_equal(twin.transposed.to_coo(), coo.transposed()));
  EXPECT_EQ(single.stats.instructions, twin.stats.instructions);
}

TEST(DoubleBuffer, NeverSlower) {
  Rng rng(2);
  for (const u32 bandwidth : {1u, 4u, 8u}) {
    const Coo coo = random_coo(150, 150, 1500, rng);
    vsim::MachineConfig config;
    config.stm.bandwidth = bandwidth;
    const kernels::HismStage stage = testing::hism_stage(coo, config.section);
    config.stm.double_buffer = false;
    const u64 single = run_split(stage, config).stats.cycles;
    config.stm.double_buffer = true;
    const u64 twin = run_split(stage, config).stats.cycles;
    EXPECT_LE(twin, single) << "B=" << bandwidth;
  }
}

TEST(PipelinedKernel, CorrectAcrossShapes) {
  Rng rng(10);
  struct Shape {
    Index rows, cols;
    usize nnz;
  };
  for (const Shape& shape : {Shape{64, 64, 500}, Shape{200, 120, 2000},
                             Shape{500, 500, 6000}, Shape{70, 300, 1500}}) {
    const Coo coo = random_coo(shape.rows, shape.cols, shape.nnz, rng);
    vsim::MachineConfig config;
    config.stm.double_buffer = true;
    const kernels::HismStage stage = testing::hism_stage(coo, config.section);
    const auto result = run_pipelined(stage, config);
    ASSERT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()))
        << shape.rows << "x" << shape.cols;
    ASSERT_TRUE(result.transposed.validate());
  }
}

TEST(PipelinedKernel, CorrectOnThreeLevelHierarchy) {
  Rng rng(11);
  const Coo coo = random_coo(300, 300, 2500, rng);
  vsim::MachineConfig config;
  config.section = 8;  // forces 3 levels
  config.stm.double_buffer = true;
  const kernels::HismStage stage = testing::hism_stage(coo, config.section);
  ASSERT_EQ(stage.hism.num_levels(), 3u);
  const auto result = run_pipelined(stage, config);
  EXPECT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()));
}

TEST(PipelinedKernel, BeatsSequentialKernel) {
  Rng rng(12);
  const Coo coo = random_coo(256, 256, 15000, rng);
  vsim::MachineConfig config;
  const kernels::HismStage stage = testing::hism_stage(coo, config.section);
  const u64 sequential = kernels::run_hism_transpose(stage, config).stats.cycles;
  config.stm.double_buffer = true;
  const u64 pipelined = run_pipelined(stage, config).stats.cycles;
  EXPECT_LT(pipelined, sequential);
  EXPECT_GT(static_cast<double>(sequential) / static_cast<double>(pipelined), 1.3);
}

TEST(PipelinedKernel, EmptyAndSingleBlockEdges) {
  vsim::MachineConfig config;
  config.section = 8;
  config.stm.double_buffer = true;
  // Empty matrix.
  const kernels::HismStage empty = testing::hism_stage(Coo(64, 64), config.section);
  EXPECT_EQ(run_pipelined(empty, config).transposed.nnz(), 0u);
  // Single-block matrix (no children to pipeline).
  Rng rng(13);
  const Coo tiny = random_coo(8, 8, 20, rng);
  const kernels::HismStage single = testing::hism_stage(tiny, config.section);
  EXPECT_TRUE(coo_equal(run_pipelined(single, config).transposed.to_coo(), tiny.transposed()));
}

TEST(PipelinedKernelDeathTest, RequiresDoubleBuffer) {
  // A level-1 root with many leaf children: on a single bank, the icm that
  // starts the second child's fill would clear the first child before it
  // drains, and the STM model refuses.
  const vsim::MachineConfig config;  // single buffer
  Rng rng(14);
  const kernels::HismStage stage =
      testing::hism_stage(random_coo(200, 200, 2000, rng), config.section);
  ASSERT_EQ(stage.hism.num_levels(), 2u);
  EXPECT_DEATH(run_pipelined(stage, config), "double-buffered");
}

TEST(DoubleBuffer, SplitRegisterKernelMatchesDefaultKernel) {
  Rng rng(3);
  const Coo coo = random_coo(100, 100, 800, rng);
  const vsim::MachineConfig config;
  const kernels::HismStage stage = testing::hism_stage(coo, config.section);
  const auto shared = kernels::run_hism_transpose(stage, config);
  const auto split = run_split(stage, config);
  EXPECT_TRUE(coo_equal(shared.transposed.to_coo(), split.transposed.to_coo()));
  EXPECT_EQ(shared.stats.instructions, split.stats.instructions);
}

}  // namespace
}  // namespace smtu
