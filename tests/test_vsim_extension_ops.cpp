// Functional tests of the ISA additions beyond the transpose paper's core:
// scalar float ops, vector compares (mask generation), float reduction, and
// the positional gather/scatter of the HiSM SpMV extension, alone and in
// examples/programs/spmv_block.s (read through SMTU_EXAMPLES_DIR, injected
// by tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "vsim/assembler.hpp"
#include "vsim/machine.hpp"

namespace smtu::vsim {
namespace {

float as_float(u64 bits) { return std::bit_cast<float>(static_cast<u32>(bits)); }

TEST(ExtensionOps, ScalarFloatArithmetic) {
  Machine machine{MachineConfig{}};
  machine.set_sreg(1, std::bit_cast<u32>(1.5f));
  machine.set_sreg(2, std::bit_cast<u32>(-0.25f));
  machine.run(assemble(
      "fadd r3, r1, r2\n"
      "fmul r4, r1, r2\n"
      "fmul r5, r3, r3\n"
      "halt\n"));
  EXPECT_FLOAT_EQ(as_float(machine.sreg(3)), 1.25f);
  EXPECT_FLOAT_EQ(as_float(machine.sreg(4)), -0.375f);
  EXPECT_FLOAT_EQ(as_float(machine.sreg(5)), 1.5625f);
}

TEST(ExtensionOps, VectorCompareEqual) {
  Machine machine{MachineConfig{}};
  machine.run(assemble(
      "li r1, 8\n"
      "ssvl r1\n"
      "v_iota vr1\n"
      "v_bcasti vr2, 3\n"
      "v_seq vr3, vr1, vr2\n"   // one-hot at lane 3
      "li r2, 5\n"
      "v_seqs vr4, vr1, r2\n"   // one-hot at lane 5
      "v_redsum r3, vr3\n"
      "v_redsum r4, vr4\n"
      "halt\n"));
  EXPECT_EQ(machine.vreg(3)[3], 1u);
  EXPECT_EQ(machine.vreg(3)[2], 0u);
  EXPECT_EQ(machine.vreg(4)[5], 1u);
  EXPECT_EQ(machine.sreg(3), 1u);
  EXPECT_EQ(machine.sreg(4), 1u);
}

TEST(ExtensionOps, MaskCountingPattern) {
  // The §IV-A mask scheme: count occurrences of a value in a vector.
  Machine machine{MachineConfig{}};
  const u32 data[8] = {7, 3, 7, 7, 1, 3, 7, 0};
  for (u32 i = 0; i < 8; ++i) machine.memory().write_u32(0x1000 + 4 * i, data[i]);
  machine.run(assemble(
      "li r1, 8\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "v_ld vr0, (r2)\n"
      "li r3, 7\n"
      "v_seqs vr1, vr0, r3\n"
      "v_redsum r4, vr1\n"
      "halt\n"));
  EXPECT_EQ(machine.sreg(4), 4u);
}

TEST(ExtensionOps, VectorFloatReduction) {
  Machine machine{MachineConfig{}};
  for (u32 i = 0; i < 6; ++i) {
    machine.memory().write_f32(0x1000 + 4 * i, 0.5f * static_cast<float>(i));
  }
  machine.run(assemble(
      "li r1, 6\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "v_ld vr1, (r2)\n"
      "v_fredsum r3, vr1\n"
      "halt\n"));
  EXPECT_FLOAT_EQ(as_float(machine.sreg(3)), 7.5f);  // 0.5 * (0+1+..+5)
}

TEST(ExtensionOps, PositionalGatherByColumn) {
  Machine machine{MachineConfig{}};
  // x[] = 100..107; positions with columns {5, 0, 2}.
  for (u32 i = 0; i < 8; ++i) machine.memory().write_f32(0x2000 + 4 * i, 100.0f + i);
  const u8 rows[3] = {1, 4, 6};
  const u8 cols[3] = {5, 0, 2};
  for (u32 i = 0; i < 3; ++i) {
    machine.memory().write_u8(0x1000 + 2 * i, rows[i]);
    machine.memory().write_u8(0x1000 + 2 * i + 1, cols[i]);
    machine.memory().write_u32(0x1100 + 4 * i, std::bit_cast<u32>(1.0f));
  }
  machine.run(assemble(
      "li r1, 3\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "li r3, 0x1100\n"
      "v_ldb vr1, vr2, r2, r3\n"
      "li r4, 0x2000\n"
      "v_gthc vr3, (r4), vr2\n"
      "halt\n"));
  EXPECT_FLOAT_EQ(std::bit_cast<float>(machine.vreg(3)[0]), 105.0f);
  EXPECT_FLOAT_EQ(std::bit_cast<float>(machine.vreg(3)[1]), 100.0f);
  EXPECT_FLOAT_EQ(std::bit_cast<float>(machine.vreg(3)[2]), 102.0f);
}

TEST(ExtensionOps, PositionalScatterAccumulateByRow) {
  Machine machine{MachineConfig{}};
  // Two entries in the same row must both accumulate.
  const u8 rows[3] = {2, 2, 5};
  const u8 cols[3] = {0, 1, 3};
  const float vals[3] = {1.5f, 2.0f, -4.0f};
  for (u32 i = 0; i < 3; ++i) {
    machine.memory().write_u8(0x1000 + 2 * i, rows[i]);
    machine.memory().write_u8(0x1000 + 2 * i + 1, cols[i]);
    machine.memory().write_u32(0x1100 + 4 * i, std::bit_cast<u32>(vals[i]));
  }
  machine.memory().write_f32(0x2000 + 4 * 2, 10.0f);  // pre-existing y[2]
  machine.memory().ensure(0x2000, 64);
  machine.run(assemble(
      "li r1, 3\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "li r3, 0x1100\n"
      "v_ldb vr1, vr2, r2, r3\n"
      "li r4, 0x2000\n"
      "v_scar vr1, (r4), vr2\n"
      "halt\n"));
  EXPECT_FLOAT_EQ(machine.memory().read_f32(0x2000 + 8), 13.5f);   // 10 + 1.5 + 2
  EXPECT_FLOAT_EQ(machine.memory().read_f32(0x2000 + 20), -4.0f);  // y[5]
  EXPECT_FLOAT_EQ(machine.memory().read_f32(0x2000 + 0), 0.0f);
}

TEST(ExtensionOps, SpmvBlockDemoMatchesTheHostProduct) {
  // examples/programs/spmv_block.s with its demo staging (r7) and the
  // program_spmv_block ctest registers: n = 16 entries, entry i at row i/2
  // and column n-1-i with value i+1, and x[j] = j+1.
  std::ifstream in(std::string(SMTU_EXAMPLES_DIR) + "/spmv_block.s");
  ASSERT_TRUE(in) << "cannot read spmv_block.s";
  std::ostringstream source;
  source << in.rdbuf();
  const Program program = assemble(source.str());

  constexpr u32 kN = 16;
  constexpr Addr kY = 16384;
  Machine machine{MachineConfig{}};
  machine.set_sreg(1, 4096);
  machine.set_sreg(2, kN);
  machine.set_sreg(3, 8192);
  machine.set_sreg(4, 12288);
  machine.set_sreg(5, kY);
  machine.set_sreg(7, 1);
  machine.set_sreg(kRegSp, 0x10000);
  machine.memory().ensure(0, 1 << 20);  // vsim_run's zeroed scratch megabyte
  const RunStats stats = machine.run(program, program.label("main"));
  EXPECT_EQ(stats.vector_instructions, 4u);  // one strip: load, gather, multiply, scatter
  EXPECT_EQ(stats.vector_elements, 4u * kN);

  std::vector<float> y(kN, 0.0f);
  for (u32 i = 0; i < kN; ++i) {
    const float x = static_cast<float>(kN - 1 - i + 1);  // x[col], col = n-1-i
    y[i / 2] += static_cast<float>(i + 1) * x;
  }
  for (u32 row = 0; row < kN; ++row) {
    EXPECT_EQ(machine.memory().read_f32(kY + 4 * row), y[row]) << "y[" << row << "]";
  }
  EXPECT_NE(y[0], 0.0f);
}

TEST(ExtensionOps, IndexedScatterAccumulate) {
  // v_scax: the read-modify-write sibling of v_stx. Repeated indices in one
  // vector accumulate sequentially (lane order), like v_scar/v_scac.
  Machine machine{MachineConfig{}};
  for (u32 i = 0; i < 8; ++i) machine.memory().write_f32(0x2000 + 4 * i, 10.0f * i);
  const u32 idx[4] = {2, 5, 2, 0};
  const float add[4] = {1.5f, -4.0f, 2.0f, 0.25f};
  for (u32 i = 0; i < 4; ++i) {
    machine.memory().write_u32(0x1000 + 4 * i, idx[i]);
    machine.memory().write_f32(0x1100 + 4 * i, add[i]);
  }
  machine.run(assemble(
      "li r1, 4\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "v_ld vr1, (r2)\n"
      "li r3, 0x1100\n"
      "v_ld vr2, (r3)\n"
      "li r4, 0x2000\n"
      "v_scax vr2, (r4), vr1\n"
      "halt\n"));
  EXPECT_FLOAT_EQ(machine.memory().read_f32(0x2000 + 8), 23.5f);   // 20 + 1.5 + 2
  EXPECT_FLOAT_EQ(machine.memory().read_f32(0x2000 + 20), 46.0f);  // 50 - 4
  EXPECT_FLOAT_EQ(machine.memory().read_f32(0x2000 + 0), 0.25f);
  EXPECT_FLOAT_EQ(machine.memory().read_f32(0x2000 + 4), 10.0f);   // untouched
}

TEST(ExtensionOps, IndexedScatterAccumulatePaysIndexedRate) {
  // v_scax streams one element per cycle like v_ldx/v_stx, not at the
  // positional ops' lane rate.
  auto cycles_of = [](const std::string& body) {
    Machine machine{MachineConfig{}};
    machine.memory().ensure(0, 1 << 16);
    return machine.run(assemble(body)).cycles;
  };
  const Cycle scax = cycles_of(
      "li r1, 64\nssvl r1\nli r2, 0x1000\nv_ld vr1, (r2)\n"
      "v_iota vr2\nli r4, 0x2000\nv_scax vr1, (r4), vr2\nhalt\n");
  const Cycle stx = cycles_of(
      "li r1, 64\nssvl r1\nli r2, 0x1000\nv_ld vr1, (r2)\n"
      "v_iota vr2\nli r4, 0x2000\nv_stx vr1, (r4), vr2\nhalt\n");
  EXPECT_EQ(scax, stx);
}

TEST(ExtensionOps, PositionalOpsRunAtLaneRate) {
  // v_gthc addresses a banked s-element window: 64 elements at p = 4 lanes
  // should cost far less than a general 64-element gather.
  auto cycles_of = [](const std::string& body) {
    Machine machine{MachineConfig{}};
    machine.memory().ensure(0, 1 << 16);
    return machine.run(assemble(body)).cycles;
  };
  const Cycle positional = cycles_of(
      "li r1, 64\nssvl r1\nli r2, 0x1000\nli r3, 0x1200\n"
      "v_ldb vr1, vr2, r2, r3\nli r4, 0x2000\nv_gthc vr3, (r4), vr2\nhalt\n");
  const Cycle general = cycles_of(
      "li r1, 64\nssvl r1\nli r2, 0x1000\nli r3, 0x1200\n"
      "v_ldb vr1, vr2, r2, r3\nli r4, 0x2000\nv_ldx vr3, (r4), vr2\nhalt\n");
  EXPECT_LT(positional + 40, general);
}

TEST(ExtensionOps, RunStatsSummaryMentionsUnits) {
  Machine machine{MachineConfig{}};
  machine.memory().ensure(0, 1 << 12);
  const RunStats stats = machine.run(assemble(
      "li r1, 64\nssvl r1\nli r2, 0x100\nv_ld vr1, (r2)\nv_addi vr2, vr1, 1\nhalt\n"));
  const std::string summary = run_stats_summary(stats);
  EXPECT_NE(summary.find("cycles"), std::string::npos);
  EXPECT_NE(summary.find("vmem"), std::string::npos);
  EXPECT_NE(summary.find("valu"), std::string::npos);
  EXPECT_GT(stats.vmem_busy_cycles, 0u);
  EXPECT_GT(stats.valu_busy_cycles, 0u);
  EXPECT_EQ(stats.stm_busy_cycles, 0u);
}

}  // namespace
}  // namespace smtu::vsim
