// Tests of the strided vector memory ops and the §II dense transpose kernel.
#include <gtest/gtest.h>

#include "formats/dense.hpp"
#include "kernels/dense_transpose.hpp"
#include "testing.hpp"
#include "vsim/assembler.hpp"
#include "vsim/machine.hpp"

namespace smtu {
namespace {

using testing::random_coo;

TEST(StridedOps, StridedLoadGathersColumn) {
  vsim::Machine machine{vsim::MachineConfig{}};
  // 4x5 row-major matrix of value r*10+c at 0x1000.
  for (u32 r = 0; r < 4; ++r) {
    for (u32 c = 0; c < 5; ++c) {
      machine.memory().write_u32(0x1000 + 4 * (r * 5 + c), r * 10 + c);
    }
  }
  machine.run(vsim::assemble(
      "li r1, 4\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "li r3, 20\n"           // stride = 4 * cols
      "v_lds vr1, 8(r2), r3\n"  // column 2
      "halt\n"));
  EXPECT_EQ(machine.vreg(1)[0], 2u);
  EXPECT_EQ(machine.vreg(1)[1], 12u);
  EXPECT_EQ(machine.vreg(1)[2], 22u);
  EXPECT_EQ(machine.vreg(1)[3], 32u);
}

TEST(StridedOps, StridedStoreScattersColumn) {
  vsim::Machine machine{vsim::MachineConfig{}};
  machine.memory().ensure(0x2000, 256);
  machine.run(vsim::assemble(
      "li r1, 4\n"
      "ssvl r1\n"
      "v_iota vr1\n"
      "v_addi vr1, vr1, 100\n"
      "li r2, 0x2000\n"
      "li r3, 12\n"
      "v_sts vr1, (r2), r3\n"
      "halt\n"));
  EXPECT_EQ(machine.memory().read_u32(0x2000), 100u);
  EXPECT_EQ(machine.memory().read_u32(0x200c), 101u);
  EXPECT_EQ(machine.memory().read_u32(0x2018), 102u);
  EXPECT_EQ(machine.memory().read_u32(0x2024), 103u);
}

TEST(StridedOps, StridedCostsLikeIndexed) {
  // The §IV-A memory model: one 32-bit word per cycle for non-contiguous
  // access. A 64-element strided load must cost ~an indexed one.
  auto cycles_of = [](const std::string& body) {
    vsim::Machine machine{vsim::MachineConfig{}};
    machine.memory().ensure(0, 1 << 16);
    return machine.run(vsim::assemble(body)).cycles;
  };
  const Cycle strided = cycles_of(
      "li r1, 64\nssvl r1\nli r2, 0x1000\nli r3, 8\nv_lds vr1, (r2), r3\nhalt\n");
  const Cycle contiguous = cycles_of(
      "li r1, 64\nssvl r1\nli r2, 0x1000\nv_ld vr1, (r2)\nhalt\n");
  EXPECT_GT(strided, contiguous + 40);
}

TEST(DenseKernel, TransposesSmallMatrix) {
  Dense dense(3, 5);
  float v = 1.0f;
  for (Index r = 0; r < 3; ++r) {
    for (Index c = 0; c < 5; ++c) dense.at(r, c) = v += 1.0f;
  }
  const auto result = kernels::run_dense_transpose(dense, {});
  EXPECT_EQ(result.transposed.rows(), 5u);
  EXPECT_EQ(result.transposed.cols(), 3u);
  EXPECT_EQ(result.transposed, dense.transposed());
}

TEST(DenseKernel, TransposesSparsePatternCorrectly) {
  Rng rng(1);
  const Coo coo = random_coo(70, 90, 600, rng);
  const Dense dense = Dense::from_coo(coo);
  const auto result = kernels::run_dense_transpose(dense, {});
  EXPECT_EQ(result.transposed, dense.transposed());
}

TEST(DenseKernel, CostIsDensityIndependent) {
  Rng rng(2);
  const Dense sparse = Dense::from_coo(random_coo(64, 64, 40, rng));
  const Dense full = Dense::from_coo(random_coo(64, 64, 4000, rng));
  const u64 sparse_cycles = kernels::run_dense_transpose(sparse, {}).stats.cycles;
  const u64 full_cycles = kernels::run_dense_transpose(full, {}).stats.cycles;
  EXPECT_EQ(sparse_cycles, full_cycles);
}

TEST(DenseKernel, CostScalesWithArea) {
  Rng rng(3);
  const Dense small = Dense::from_coo(random_coo(64, 64, 100, rng));
  const Dense large = Dense::from_coo(random_coo(128, 128, 100, rng));
  const u64 small_cycles = kernels::run_dense_transpose(small, {}).stats.cycles;
  const u64 large_cycles = kernels::run_dense_transpose(large, {}).stats.cycles;
  // 4x the elements: roughly 4x the cycles (strided path dominates).
  EXPECT_GT(large_cycles, 3 * small_cycles);
  EXPECT_LT(large_cycles, 6 * small_cycles);
}

}  // namespace
}  // namespace smtu
