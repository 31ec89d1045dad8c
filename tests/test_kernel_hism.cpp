// Integration tests: the recursive HiSM transpose kernel (Fig. 6/7) running
// on the simulated vector processor with the STM functional unit. Every run
// is verified by decoding the in-place image back from simulated memory and
// comparing against the pure-C++ reference transpose.
#include <gtest/gtest.h>

#include <iomanip>

#include "hism/hism.hpp"
#include "hism/transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/layout.hpp"
#include "testing.hpp"
#include "vsim/assembler.hpp"
#include "vsim/config.hpp"

namespace smtu {
namespace {

using kernels::HismStage;
using kernels::HismTransposeResult;
using kernels::run_hism_transpose;
using testing::coo_equal;
using testing::hism_stage;
using testing::make_coo;
using testing::random_coo;

vsim::MachineConfig config_with_section(u32 section) {
  vsim::MachineConfig config;
  config.section = section;
  return config;
}

TEST(HismKernel, SingleBlockMatrix) {
  const Coo coo = make_coo(8, 8,
                           {{0, 3, 1.0f}, {0, 5, 2.0f}, {2, 0, 3.0f}, {5, 5, 4.0f},
                            {7, 1, 5.0f}, {7, 7, 6.0f}});
  const vsim::MachineConfig config = config_with_section(8);
  const HismStage stage = hism_stage(coo, config.section);
  ASSERT_EQ(stage.hism.num_levels(), 1u);

  const HismTransposeResult result = run_hism_transpose(stage, config);
  EXPECT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()));
  EXPECT_TRUE(result.transposed.validate());
  EXPECT_GT(result.stats.cycles, 0u);
  EXPECT_EQ(result.stats.stm_blocks, 1u);
}

TEST(HismKernel, TwoLevelMatrix) {
  Rng rng(42);
  const Coo coo = random_coo(40, 40, 120, rng);
  const vsim::MachineConfig config = config_with_section(8);
  const HismStage stage = hism_stage(coo, config.section);
  ASSERT_EQ(stage.hism.num_levels(), 2u);

  const HismTransposeResult result = run_hism_transpose(stage, config);
  EXPECT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()));
  // One block per level-0 array plus two passes over each level>=1 block.
  EXPECT_GE(result.stats.stm_blocks, stage.hism.level(0).size());
}

TEST(HismKernel, ThreeLevelMatrix) {
  Rng rng(7);
  const Coo coo = random_coo(300, 300, 500, rng);
  const vsim::MachineConfig config = config_with_section(8);
  const HismStage stage = hism_stage(coo, config.section);
  ASSERT_EQ(stage.hism.num_levels(), 3u);

  const HismTransposeResult result = run_hism_transpose(stage, config);
  EXPECT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()));
}

TEST(HismKernel, RectangularMatrix) {
  Rng rng(11);
  const Coo coo = random_coo(50, 200, 300, rng);
  const vsim::MachineConfig config = config_with_section(16);
  const HismTransposeResult result = run_hism_transpose(hism_stage(coo, config.section), config);
  const Coo transposed = result.transposed.to_coo();
  EXPECT_EQ(transposed.rows(), 200u);
  EXPECT_EQ(transposed.cols(), 50u);
  EXPECT_TRUE(coo_equal(transposed, coo.transposed()));
}

TEST(HismKernel, DefaultSection64) {
  Rng rng(99);
  const Coo coo = random_coo(500, 500, 4000, rng);
  const vsim::MachineConfig config;  // s = 64, B = 4, L = 4
  const HismStage stage = hism_stage(coo, config.section);

  const HismTransposeResult result = run_hism_transpose(stage, config);
  EXPECT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()));
  EXPECT_TRUE(coo_equal(result.transposed.to_coo(), transposed(stage.hism).to_coo()));
}

TEST(HismKernel, DoubleTransposeIsIdentity) {
  Rng rng(5);
  const Coo coo = random_coo(120, 80, 600, rng);
  const vsim::MachineConfig config = config_with_section(16);
  const HismTransposeResult once = run_hism_transpose(hism_stage(coo, config.section), config);
  const HismTransposeResult twice =
      run_hism_transpose(kernels::build_hism_stage(once.transposed), config);
  EXPECT_TRUE(coo_equal(twice.transposed.to_coo(), coo));
}

TEST(HismKernel, EmptyMatrix) {
  const Coo coo(64, 64);
  const vsim::MachineConfig config = config_with_section(8);
  const HismTransposeResult result = run_hism_transpose(hism_stage(coo, config.section), config);
  EXPECT_EQ(result.transposed.nnz(), 0u);
  EXPECT_EQ(result.stats.stm_blocks, 0u);
}

TEST(HismKernel, TransposesStrictlyInPlace) {
  // §IV-A: "the same memory location and amount as the original is needed
  // to store the transposed block and therefore no allocation of memory for
  // the transposed is needed". Verify: the kernel touches only the image
  // region and the stack — every other byte of simulated memory stays 0.
  Rng rng(21);
  const Coo coo = random_coo(120, 120, 700, rng);
  vsim::MachineConfig config;
  config.section = 8;
  const HismStage stage = hism_stage(coo, config.section);
  const HismImage& image = stage.image;

  const vsim::Program program = vsim::assemble(kernels::hism_transpose_source());
  vsim::Machine machine(config);
  machine.memory().attach_base(stage.snapshot);
  machine.set_sreg(1, image.root_addr);
  machine.set_sreg(2, image.root_len);
  machine.set_sreg(3, image.levels - 1);
  machine.set_sreg(vsim::kRegSp, kernels::kStackTop);
  machine.run(program);

  const auto raw = machine.memory().raw();
  const Addr image_end = image.base + image.bytes.size();
  for (Addr addr = image_end; addr < raw.size(); ++addr) {
    ASSERT_EQ(raw[addr], 0u) << "stray write at 0x" << std::hex << addr;
  }
  // In-place: the image region decodes to the transpose, same footprint.
  const HismMatrix transposed = kernels::read_back_hism(machine, image, /*swap_dims=*/true);
  EXPECT_TRUE(coo_equal(transposed.to_coo(), coo.transposed()));
}

TEST(HismKernel, BandwidthSweepIsMonotone) {
  // Larger STM buffer bandwidth never slows the kernel down.
  Rng rng(22);
  const Coo coo = random_coo(256, 256, 3000, rng);
  u64 previous = ~u64{0};
  for (const u32 bandwidth : {1u, 2u, 4u, 8u}) {
    vsim::MachineConfig config;
    config.stm.bandwidth = bandwidth;
    const u64 cycles = run_hism_transpose(hism_stage(coo, config.section), config).stats.cycles;
    EXPECT_LE(cycles, previous) << "B=" << bandwidth;
    previous = cycles;
  }
}

TEST(HismKernel, DenseBlockMatrix) {
  // Fully dense 16x16 with s = 8: every s^2-block is full.
  Coo coo(16, 16);
  float v = 1.0f;
  for (Index r = 0; r < 16; ++r) {
    for (Index c = 0; c < 16; ++c) coo.add(r, c, v += 1.0f);
  }
  coo.canonicalize();
  const vsim::MachineConfig config = config_with_section(8);
  const HismTransposeResult result = run_hism_transpose(hism_stage(coo, config.section), config);
  EXPECT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()));
}

}  // namespace
}  // namespace smtu
