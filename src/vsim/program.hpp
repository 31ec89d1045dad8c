// An assembled program: decoded instructions, the label map, and the
// profiler's debug info (source-line text plus `;; profile:` regions).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "vsim/isa.hpp"

namespace smtu::vsim {

// A named instruction range opened by a `;; profile: <name>` assembler
// directive (closed by the next directive or the end of the program).
// Ranges are ordered and non-overlapping; `end` is one past the last pc.
struct ProfileRegion {
  std::string name;
  usize begin = 0;
  usize end = 0;
};

// The interpreter's hot state bundle (vsim/machine.hpp).
struct ExecState;

// Dispatch-friendly predecode of one static instruction: the operand
// register lists the interpreter's issue logic needs are computed once at
// assembly time instead of per dynamic execution (the opcode's unit,
// startup kind and memory class are compile-time constants of its handler).
// Register numbers are resolved from the Instruction fields, in the same
// order the Machine's hazard checks evaluate them. `handler` is the
// threaded-code dispatch target: a per-opcode function that executes the
// instruction end to end (timing model + functional semantics) and
// advances the pc. `run_len` is the length of the straight-line scalar run
// that starts here (capped at 65535), 0 where none does; Machine::run
// executes a run of two or more as one dispatch.
struct DecodedInst {
  u8 num_sregs = 0;  // scalar source registers read at issue
  u8 num_srcs = 0;   // vector source registers
  u8 num_dsts = 0;   // vector destination registers
  u8 sregs[2] = {0, 0};
  u8 srcs[3] = {0, 0, 0};
  u8 dsts[2] = {0, 0};
  u16 run_len = 0;  // sits in the padding before `handler`
  void (*handler)(ExecState&, const Instruction&, const DecodedInst&) = nullptr;
};

// Pre-bound per-opcode execute handler (see DecodedInst::handler).
using OpHandler = void (*)(ExecState&, const Instruction&, const DecodedInst&);

// The handler for one opcode, from the process-global per-opcode table
// (defined next to the Machine in machine.cpp). Stable for the process
// lifetime, so predecoded programs cached by ProgramCache stay valid.
OpHandler opcode_handler(Op op);

// Predecode of an instruction sequence: each instruction's operand lists
// follow from its opcode's Form and kStore flag (vsim/isa.hpp). Aborts on a
// register number out of range. assemble() stores it in Program::decoded,
// which Machine::run needs.
std::vector<DecodedInst> decode_instructions(const std::vector<Instruction>& instructions);

struct Program {
  std::vector<Instruction> instructions;
  std::map<std::string, usize> labels;
  std::vector<ProfileRegion> regions;
  // Source text by 1-based line number (index 0 unused) — what
  // Instruction::source_line points into; feeds the profiler's per-line
  // hot-spot tables.
  std::vector<std::string> source_lines;
  // One entry per instruction; assemble() fills it through predecode().
  std::vector<DecodedInst> decoded;

  usize size() const { return instructions.size(); }

  // (Re)builds `decoded` from `instructions`.
  void predecode() { decoded = decode_instructions(instructions); }
  bool has_label(const std::string& name) const { return labels.count(name) > 0; }
  usize label(const std::string& name) const;

  // Disassembly listing with labels, for debugging kernels.
  std::string listing() const;
};

}  // namespace smtu::vsim
