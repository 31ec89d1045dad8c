#include <gtest/gtest.h>

#include <limits>

#include "vsim/assembler.hpp"

namespace smtu::vsim {
namespace {

TEST(Assembler, ParsesScalarOps) {
  const Program p = assemble(
      "li r1, 42\n"
      "addi r2, r1, -3\n"
      "add r3, r1, r2\n"
      "halt\n");
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p.instructions[0].op, Op::kLi);
  EXPECT_EQ(p.instructions[0].a, 1u);
  EXPECT_EQ(p.instructions[0].imm, 42);
  EXPECT_EQ(p.instructions[1].imm, -3);
  EXPECT_EQ(p.instructions[2].op, Op::kAdd);
}

TEST(Assembler, ParsesMemoryOperands) {
  const Program p = assemble(
      "lw r1, 8(r2)\n"
      "sw r1, (r3)\n"
      "halt\n");
  EXPECT_EQ(p.instructions[0].op, Op::kLw);
  EXPECT_EQ(p.instructions[0].b, 2u);
  EXPECT_EQ(p.instructions[0].imm, 8);
  EXPECT_EQ(p.instructions[1].imm, 0);
}

TEST(Assembler, ResolvesLabelsForwardAndBackward) {
  const Program p = assemble(
      "start:\n"
      "  beq r0, r0, end\n"
      "  bne r1, r0, start\n"
      "end:\n"
      "  halt\n");
  EXPECT_EQ(p.label("start"), 0u);
  EXPECT_EQ(p.label("end"), 2u);
  EXPECT_EQ(p.instructions[0].imm, 2);
  EXPECT_EQ(p.instructions[1].imm, 0);
}

TEST(Assembler, HexAndNegativeImmediates) {
  const Program p = assemble(
      "li r1, 0x10\nli r2, -0x10\nandi r3, r1, -4\nli r4, -0x8000000000000000\n"
      "li r5, 0xFFFFFFFFFFFFFFFF\nhalt\n");
  EXPECT_EQ(p.instructions[0].imm, 16);
  EXPECT_EQ(p.instructions[1].imm, -16);
  EXPECT_EQ(p.instructions[2].imm, -4);
  EXPECT_EQ(p.instructions[3].imm, std::numeric_limits<i64>::min());
  EXPECT_EQ(p.instructions[4].imm, -1);
}

TEST(Assembler, RegisterAliases) {
  const Program p = assemble("mv sp, ra\nadd r1, zero, sp\nhalt\n");
  EXPECT_EQ(p.instructions[0].a, kRegSp);
  EXPECT_EQ(p.instructions[0].b, kRegRa);
  EXPECT_EQ(p.instructions[1].b, kRegZero);
}

TEST(Assembler, PaperMnemonicAliases) {
  // The paper's names map onto the core ops.
  const Program p = assemble(
      "v_ld_idx vr1, (r2), vr0\n"
      "v_st_idx vr1, (r3), vr0\n"
      "v_setimm vr2, 9\n"
      "v_add_imm vr1, vr1, 1\n"
      "halt\n");
  EXPECT_EQ(p.instructions[0].op, Op::kVLdx);
  EXPECT_EQ(p.instructions[1].op, Op::kVStx);
  EXPECT_EQ(p.instructions[2].op, Op::kVBcasti);
  EXPECT_EQ(p.instructions[3].op, Op::kVAddi);
}

TEST(Assembler, HismExtensionOps) {
  const Program p = assemble(
      "icm\n"
      "v_ldb vr1, vr2, r3, r4\n"
      "v_stcr vr1, vr2\n"
      "v_ldcc vr1, vr2\n"
      "v_stb vr1, vr2, r3, r4\n"
      "v_stbv vr1, r4\n"
      "halt\n");
  EXPECT_EQ(p.instructions[0].op, Op::kIcm);
  EXPECT_EQ(p.instructions[1].op, Op::kVLdb);
  EXPECT_EQ(p.instructions[1].c, 3u);
  EXPECT_EQ(p.instructions[1].d, 4u);
  EXPECT_EQ(p.instructions[5].op, Op::kVStbv);
}

TEST(Assembler, CommentsAndBlankLines) {
  const Program p = assemble(
      "# full-line comment\n"
      "\n"
      "li r1, 1  # trailing comment\n"
      "li r2, 2  % paper-style comment\n"
      "halt\n");
  ASSERT_EQ(p.size(), 3u);
}

TEST(Assembler, CallAndRet) {
  const Program p = assemble(
      "main: call fn\n"
      "halt\n"
      "fn: ret\n");
  EXPECT_EQ(p.instructions[0].op, Op::kJal);
  EXPECT_EQ(p.instructions[0].a, kRegRa);
  EXPECT_EQ(p.instructions[0].imm, 2);
  EXPECT_EQ(p.instructions[2].op, Op::kJr);
  EXPECT_EQ(p.instructions[2].a, kRegRa);
}

TEST(Assembler, ErrorOnUnknownMnemonic) {
  EXPECT_THROW(assemble("frobnicate r1\n"), AssemblyError);
}

TEST(Assembler, ErrorOnUndefinedLabel) {
  EXPECT_THROW(assemble("beq r0, r0, nowhere\nhalt\n"), AssemblyError);
}

TEST(Assembler, ErrorOnDuplicateLabel) {
  EXPECT_THROW(assemble("a:\na:\nhalt\n"), AssemblyError);
}

TEST(Assembler, ErrorOnBadOperandCount) {
  EXPECT_THROW(assemble("add r1, r2\n"), AssemblyError);
}

TEST(Assembler, ErrorOnBadRegister) {
  EXPECT_THROW(assemble("mv r1, r99\n"), AssemblyError);
  EXPECT_THROW(assemble("v_iota vr99\n"), AssemblyError);
}

TEST(Assembler, ErrorCarriesLineNumber) {
  try {
    assemble("li r1, 1\nbogus\n");
    FAIL() << "expected AssemblyError";
  } catch (const AssemblyError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(Assembler, ListingShowsLabels) {
  const Program p = assemble("loop: addi r1, r1, 1\nbne r1, r2, loop\nhalt\n");
  const std::string listing = p.listing();
  EXPECT_NE(listing.find("loop:"), std::string::npos);
  EXPECT_NE(listing.find("addi"), std::string::npos);
}

}  // namespace
}  // namespace smtu::vsim
