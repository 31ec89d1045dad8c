#include "vsim/program.hpp"

#include <limits>
#include <sstream>

#include "support/assert.hpp"

namespace smtu::vsim {
namespace {

void decode_vector(const Instruction& inst, DecodedInst& d) {
  // Scalar sources the instruction needs at issue.
  switch (inst.op) {
    case Op::kVLd:
    case Op::kVSt:
    case Op::kVLdx:
    case Op::kVStx:
    case Op::kVBcast:
    case Op::kVStbv:
    case Op::kVGthC:
    case Op::kVScaR:
    case Op::kVGthR:
    case Op::kVScaC:
    case Op::kVScaX:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      break;
    case Op::kVLds:
    case Op::kVSts:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVAdds:
    case Op::kVExtract:
    case Op::kVSeqS:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVLdb:
    case Op::kVStb:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.d);
      break;
    default:
      break;
  }

  // Vector sources and destinations by opcode.
  switch (inst.op) {
    case Op::kVLd:
    case Op::kVLds:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      break;
    case Op::kVSt:
    case Op::kVSts:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      break;
    case Op::kVLdx:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVStx:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVAdd:
    case Op::kVSub:
    case Op::kVMul:
    case Op::kVAnd:
    case Op::kVOr:
    case Op::kVXor:
    case Op::kVMin:
    case Op::kVMax:
    case Op::kVFAdd:
    case Op::kVFMul:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVAddi:
    case Op::kVAdds:
    case Op::kVSeqS:
    case Op::kVSlideUp:
    case Op::kVSlideDown:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      break;
    case Op::kVSeq:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVGthC:
    case Op::kVGthR:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVScaR:
    case Op::kVScaC:
    case Op::kVScaX:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.c);
      break;
    case Op::kVBcast:
    case Op::kVBcasti:
    case Op::kVIota:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      break;
    case Op::kVRedSum:
    case Op::kVFRedSum:
    case Op::kVExtract:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      break;
    case Op::kIcm:
      break;
    case Op::kVLdb:
    case Op::kVLdcc:
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.a);
      d.dsts[d.num_dsts++] = static_cast<u8>(inst.b);
      break;
    case Op::kVStcr:
    case Op::kVStb:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.b);
      break;
    case Op::kVStbv:
      d.srcs[d.num_srcs++] = static_cast<u8>(inst.a);
      break;
    default:
      break;
  }
}

void decode_scalar(const Instruction& inst, DecodedInst& d) {
  switch (inst.op) {
    case Op::kLi:
      break;
    case Op::kMv:
    case Op::kAddi:
    case Op::kMuli:
    case Op::kAndi:
    case Op::kSlli:
    case Op::kSrli:
    case Op::kJr:
    case Op::kSsvl:
    case Op::kSetvl:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      if (inst.op == Op::kJr || inst.op == Op::kSsvl) {
        d.sregs[d.num_sregs++] = static_cast<u8>(inst.a);
      }
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kSll:
    case Op::kSrl:
    case Op::kMin:
    case Op::kMax:
    case Op::kFAdd:
    case Op::kFMul:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      break;
    case Op::kLw:
    case Op::kLhu:
    case Op::kLbu:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      break;
    case Op::kSw:
    case Op::kSh:
    case Op::kSb:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.a);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      break;
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.a);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      break;
    case Op::kJal:
    case Op::kHalt:
    case Op::kNop:
    case Op::kBarrier:
      break;
    case Op::kAmoAdd:
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.b);
      d.sregs[d.num_sregs++] = static_cast<u8>(inst.c);
      break;
    default:
      SMTU_CHECK_MSG(false, "unhandled scalar op in decode");
  }
}

DecodedInst decode_instruction(const Instruction& inst) {
  DecodedInst d;
  if (op_is_vector(inst.op)) {
    decode_vector(inst, d);
  } else {
    decode_scalar(inst, d);
  }
  // Bind the threaded-dispatch target once per static instruction; the
  // handlers index register-timing arrays with these numbers, so validate
  // them here rather than per dynamic execution.
  d.handler = opcode_handler(inst.op);
  for (u32 i = 0; i < d.num_sregs; ++i) {
    SMTU_CHECK_MSG(d.sregs[i] < kNumScalarRegs, "scalar register out of range");
  }
  for (u32 i = 0; i < d.num_srcs; ++i) {
    SMTU_CHECK_MSG(d.srcs[i] < kNumVectorRegs, "vector register out of range");
  }
  for (u32 i = 0; i < d.num_dsts; ++i) {
    SMTU_CHECK_MSG(d.dsts[i] < kNumVectorRegs, "vector register out of range");
  }
  // Scalar destinations: `a` of every scalar op (its destination, or a
  // source of stores and branches; the trace sample reads its ready time)
  // and of the vector ops that produce a scalar.
  if (!op_is_vector(inst.op) || inst.op == Op::kVRedSum || inst.op == Op::kVFRedSum ||
      inst.op == Op::kVExtract) {
    SMTU_CHECK_MSG(inst.a < kNumScalarRegs, "scalar register out of range");
  }
  return d;
}

}  // namespace

std::vector<DecodedInst> decode_instructions(const std::vector<Instruction>& instructions) {
  std::vector<DecodedInst> decoded;
  decoded.reserve(instructions.size());
  for (const Instruction& inst : instructions) decoded.push_back(decode_instruction(inst));
  // Run lengths back to front: each pc continues the run of pc + 1 unless
  // it ends a run itself or cannot be in one.
  u16 run_len = 0;
  for (usize pc = instructions.size(); pc-- > 0;) {
    const Op op = instructions[pc].op;
    if (!op_in_scalar_run(op)) {
      run_len = 0;
    } else if (op_ends_scalar_run(op)) {
      run_len = 1;
    } else if (run_len < std::numeric_limits<u16>::max()) {
      ++run_len;
    }
    decoded[pc].run_len = run_len;
  }
  return decoded;
}

usize Program::label(const std::string& name) const {
  const auto it = labels.find(name);
  SMTU_CHECK_MSG(it != labels.end(), "unknown label: " + name);
  return it->second;
}

std::string Program::listing() const {
  std::map<usize, std::vector<std::string>> labels_at;
  for (const auto& [name, pc] : labels) labels_at[pc].push_back(name);

  std::ostringstream out;
  for (usize pc = 0; pc < instructions.size(); ++pc) {
    if (const auto it = labels_at.find(pc); it != labels_at.end()) {
      for (const std::string& name : it->second) out << name << ":\n";
    }
    out << "  " << pc << ": " << to_string(instructions[pc]) << '\n';
  }
  return out.str();
}

}  // namespace smtu::vsim
