// Exhaustive ground truth on tiny matrices: every one of the 512 possible
// 3x3 sparsity patterns goes through both simulated kernels (at s = 2,
// which forces a two-level hierarchy even at this size), plus a deep
// 8-level hierarchy stress case.
#include <gtest/gtest.h>

#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/layout.hpp"
#include "vsim/assembler.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

TEST(KernelExhaustive, EveryThreeByThreePattern) {
  vsim::MachineConfig config;
  config.section = 2;
  for (u32 pattern = 0; pattern < 512; ++pattern) {
    Coo coo(3, 3);
    for (u32 bit = 0; bit < 9; ++bit) {
      if (pattern >> bit & 1) {
        coo.add(bit / 3, bit % 3, static_cast<float>(bit + 1));
      }
    }
    coo.canonicalize();
    const Coo expected = coo.transposed();

    const auto hism_result =
        kernels::run_hism_transpose(testing::hism_stage(coo, config.section), config);
    ASSERT_TRUE(coo_equal(hism_result.transposed.to_coo(), expected))
        << "HiSM pattern " << pattern;

    const auto crs_result = kernels::run_crs_transpose(testing::crs_stage(coo), config);
    ASSERT_TRUE(coo_equal(crs_result.transposed, expected)) << "CRS pattern " << pattern;
  }
}

TEST(KernelExhaustive, EveryFourByFourDiagonalAndAntiDiagonalCombination) {
  // All 256 combinations of diagonal/anti-diagonal occupancy at s = 2.
  vsim::MachineConfig config;
  config.section = 2;
  for (u32 pattern = 0; pattern < 256; ++pattern) {
    Coo coo(4, 4);
    for (u32 bit = 0; bit < 4; ++bit) {
      if (pattern >> bit & 1) coo.add(bit, bit, static_cast<float>(bit + 1));
      if (pattern >> (bit + 4) & 1) coo.add(bit, 3 - bit, static_cast<float>(bit + 10));
    }
    coo.canonicalize();
    const auto result =
        kernels::run_hism_transpose(testing::hism_stage(coo, config.section), config);
    ASSERT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()))
        << "pattern " << pattern;
  }
}

TEST(KernelExhaustive, EightLevelHierarchyRecursionDepth) {
  // s = 2 on a 256x256 matrix: ceil(log2 256) = 8 hierarchy levels — the
  // deepest recursion the kernel's simulated call stack will realistically
  // see (s = 64 covers 2^48-sized matrices at the same depth).
  Rng rng(42);
  const Coo coo = random_coo(256, 256, 600, rng);
  vsim::MachineConfig config;
  config.section = 2;
  const kernels::HismStage stage = testing::hism_stage(coo, config.section);
  ASSERT_EQ(stage.hism.num_levels(), 8u);
  const auto result = kernels::run_hism_transpose(stage, config);
  EXPECT_TRUE(coo_equal(result.transposed.to_coo(), coo.transposed()));
  EXPECT_TRUE(result.transposed.validate());
}

TEST(KernelExhaustive, DoubleKernelTransposeRestoresImageBytes) {
  // The in-place property at its strongest: transposing twice restores the
  // memory image *byte for byte* (positions return to row-major order,
  // pointers and lengths to their original slots).
  Rng rng(7);
  const Coo coo = random_coo(120, 120, 900, rng);
  vsim::MachineConfig config;
  config.section = 8;
  const kernels::HismStage stage = testing::hism_stage(coo, config.section);
  const HismImage& image = stage.image;

  const vsim::Program program = vsim::assemble(kernels::hism_transpose_source());
  vsim::Machine machine(config);
  machine.memory().attach_base(stage.snapshot);
  // Compare the image region only: the call stack below it legitimately
  // accumulates residue across runs.
  auto snapshot = [&] {
    const auto raw = machine.memory().raw();
    return std::vector<u8>(raw.begin() + static_cast<std::ptrdiff_t>(image.base),
                           raw.begin() + static_cast<std::ptrdiff_t>(image.base +
                                                                     image.bytes.size()));
  };
  const std::vector<u8> original = snapshot();

  auto run_once = [&] {
    machine.set_sreg(1, image.root_addr);
    machine.set_sreg(2, image.root_len);
    machine.set_sreg(3, image.levels - 1);
    machine.set_sreg(vsim::kRegSp, kernels::kStackTop);
    machine.run(program);
  };
  run_once();
  EXPECT_NE(snapshot(), original);  // the transpose really changed the image
  run_once();
  EXPECT_EQ(snapshot(), original);
}

}  // namespace
}  // namespace smtu
