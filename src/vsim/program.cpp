#include "vsim/program.hpp"

#include <limits>
#include <sstream>

#include "support/assert.hpp"

namespace smtu::vsim {
namespace {

DecodedInst decode_instruction(const Instruction& inst) {
  DecodedInst d;
  // Bind the threaded-dispatch target once per static instruction (this
  // also checks the opcode); the handlers index register-timing arrays with
  // the numbers below, so validate them here rather than per dynamic
  // execution.
  d.handler = opcode_handler(inst.op);
  const auto scalar = [](u8 r) {
    SMTU_CHECK_MSG(r < kNumScalarRegs, "scalar register out of range");
    return r;
  };
  const auto vector = [](u8 r) {
    SMTU_CHECK_MSG(r < kNumVectorRegs, "vector register out of range");
    return r;
  };
  // Scalar sources needed at issue, vector sources, vector destinations.
  const auto sreg = [&](u8 r) { d.sregs[d.num_sregs++] = scalar(r); };
  const auto src = [&](u8 r) { d.srcs[d.num_srcs++] = vector(r); };
  const auto dst = [&](u8 r) { d.dsts[d.num_dsts++] = vector(r); };
  const OpInfo& info = op_info(inst.op);
  // The vector data operand(s) of a memory or STM access: stores read it.
  const bool store = (info.flags & kStore) != 0;
  const auto data = [&](u8 r) { store ? src(r) : dst(r); };
  // A scalar destination is not listed, but the handlers write it (and the
  // trace sample reads its ready time), so it is checked too.
  switch (info.form) {
    case Form::kNone:   // `a` is r0
    case Form::kLabel:  // `a` is ra, jal's link register
    case Form::kRI:
      scalar(inst.a);
      break;
    case Form::kR:  // jr, ssvl: `b` (always r0) is listed before `a`
      sreg(inst.b);
      sreg(inst.a);
      break;
    case Form::kRR:
    case Form::kRRI:
      scalar(inst.a);
      sreg(inst.b);
      break;
    case Form::kRRR:
    case Form::kRRMem:
      scalar(inst.a);
      sreg(inst.b);
      sreg(inst.c);
      break;
    case Form::kRMem:
      if (store) {
        sreg(inst.a);
      } else {
        scalar(inst.a);
      }
      sreg(inst.b);
      break;
    case Form::kBranch:
      sreg(inst.a);
      sreg(inst.b);
      break;
    case Form::kVMem:
      sreg(inst.b);
      data(inst.a);
      break;
    case Form::kVMemIdx:
      sreg(inst.b);
      data(inst.a);
      src(inst.c);
      break;
    case Form::kVMemStride:
      sreg(inst.b);
      sreg(inst.c);
      data(inst.a);
      break;
    case Form::kVVV:
      dst(inst.a);
      src(inst.b);
      src(inst.c);
      break;
    case Form::kVVI:
      dst(inst.a);
      src(inst.b);
      break;
    case Form::kVVR:
      sreg(inst.c);
      dst(inst.a);
      src(inst.b);
      break;
    case Form::kVR:
      sreg(inst.b);
      data(inst.a);
      break;
    case Form::kVI:
    case Form::kV:
      dst(inst.a);
      break;
    case Form::kRV:
      scalar(inst.a);
      src(inst.b);
      break;
    case Form::kRVR:
      scalar(inst.a);
      sreg(inst.c);
      src(inst.b);
      break;
    case Form::kVV:
      data(inst.a);
      data(inst.b);
      break;
    case Form::kVVRR:
      sreg(inst.c);
      sreg(inst.d);
      data(inst.a);
      data(inst.b);
      break;
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
