// The ISA as the rest of the simulator sees it, pinned by one digest: one
// assembled line of every mnemonic and alias (distinct register numbers in
// every operand slot, so a swapped or dropped operand moves the digest),
// its Instruction, the predecoded operand lists and scalar-run length the
// interpreter issues from, and every opcode's static properties. The
// kernels exercise fewer than half the opcodes, so the InterpreterGolden
// digests alone cannot see a decode change to the rest.
//
// The digest was recorded from the per-opcode switches that preceded the
// opcode table (vsim/isa.hpp) and is reproduced by the table unedited.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "testing.hpp"
#include "vsim/assembler.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu::vsim {
namespace {

template <usize N>
void add_regs(SimHash& digest, u8 count, const u8 (&regs)[N]) {
  digest.update_u64(count);
  for (u8 i = 0; i < count; ++i) digest.update_u64(regs[i]);
}

TEST(IsaTable, EveryMnemonicAssemblesOnce) {
  const Program program = assemble(testing::kEveryMnemonic);
  std::set<Op> seen;
  for (const Instruction& inst : program.instructions) seen.insert(inst.op);
  EXPECT_EQ(seen.size(), kOpCount);
  EXPECT_EQ(program.size(), kOpCount + 6);  // five aliases and `ret`
}

TEST(IsaTable, DecodeAndPropertiesMatchTheRecordedDigest) {
  const Program program = assemble(testing::kEveryMnemonic);
  ASSERT_EQ(program.decoded.size(), program.size());
  SimHash digest;
  for (usize pc = 0; pc < program.size(); ++pc) {
    const Instruction& inst = program.instructions[pc];
    for (const u64 field : {u64{static_cast<u8>(inst.op)}, u64{inst.a}, u64{inst.b},
                            u64{inst.c}, u64{inst.d}, static_cast<u64>(inst.imm),
                            u64{inst.source_line}}) {
      digest.update_u64(field);
    }
    const DecodedInst& dec = program.decoded[pc];
    add_regs(digest, dec.num_sregs, dec.sregs);
    add_regs(digest, dec.num_srcs, dec.srcs);
    add_regs(digest, dec.num_dsts, dec.dsts);
    digest.update_u64(dec.run_len);
  }
  for (usize i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    digest.update(op_name(op));
    for (const bool property : {op_is_vector(op), op_indexed_vmem(op), op_scalar_mem(op),
                                op_in_scalar_run(op), op_ends_scalar_run(op)}) {
      digest.update_u64(property ? 1 : 0);
    }
    // Unit and startup are defined for the vector opcodes only.
    if (op_is_vector(op)) {
      digest.update_u64(static_cast<u64>(op_unit(op)));
      digest.update_u64(static_cast<u64>(op_startup(op)));
    }
  }
  EXPECT_EQ(digest.hex(), "27b202b60e97168b3d0dec202782b2c9")
      << "the assembled or predecoded ISA changed; if that is intended, the new digest is the "
         "first value";
}

}  // namespace
}  // namespace smtu::vsim
