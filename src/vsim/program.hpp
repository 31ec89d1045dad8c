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

// Functional unit a vector instruction occupies. Values match the
// Machine's internal unit indices.
enum class ExecUnit : u8 { kVMem = 0, kVAlu = 1, kStm = 2 };

// Which MachineConfig field supplies an instruction's startup latency.
// Resolved to a cycle count once per run (the config is per-Machine, the
// kind is per-opcode).
enum class StartupKind : u8 { kMem = 0, kValu = 1, kStmFill = 2, kStmDrain = 3, kNone = 4 };
inline constexpr usize kStartupKindCount = static_cast<usize>(StartupKind::kNone) + 1;

// Per-opcode static properties, constexpr so the per-opcode handler
// templates (machine.cpp) resolve them at compile time.

// Vector memory accesses that move one element per cycle (an address per
// element) rather than streaming at the port's byte rate.
constexpr bool op_indexed_vmem(Op op) {
  return op == Op::kVLdx || op == Op::kVStx || op == Op::kVLds || op == Op::kVSts ||
         op == Op::kVScaX;
}

// Scalar loads/stores contend for the scalar memory ports.
constexpr bool op_scalar_mem(Op op) {
  switch (op) {
    case Op::kLw:
    case Op::kLhu:
    case Op::kLbu:
    case Op::kSw:
    case Op::kSh:
    case Op::kSb:
    case Op::kAmoAdd:
      return true;
    default:
      return false;
  }
}

// Functional unit a vector instruction occupies (meaningful only when
// op_is_vector(op)).
constexpr ExecUnit op_unit(Op op) {
  switch (op) {
    case Op::kVLd:
    case Op::kVSt:
    case Op::kVLdx:
    case Op::kVStx:
    case Op::kVLds:
    case Op::kVSts:
    case Op::kVLdb:
    case Op::kVStb:
    case Op::kVStbv:
    case Op::kVGthC:
    case Op::kVScaR:
    case Op::kVGthR:
    case Op::kVScaC:
    case Op::kVScaX:
      return ExecUnit::kVMem;
    case Op::kIcm:
    case Op::kVStcr:
    case Op::kVLdcc:
      return ExecUnit::kStm;
    default:
      return ExecUnit::kVAlu;
  }
}

constexpr StartupKind op_startup(Op op) {
  switch (op) {
    case Op::kIcm:
      return StartupKind::kNone;
    case Op::kVStcr:
      return StartupKind::kStmFill;
    case Op::kVLdcc:
      return StartupKind::kStmDrain;
    default:
      return op_unit(op) == ExecUnit::kVMem ? StartupKind::kMem : StartupKind::kValu;
  }
}

// Straight-line scalar runs (DecodedInst::run_len). A run holds scalar
// instructions only and stops before anything that leaves the scalar
// core: a vector instruction, `barrier` or `halt`.
constexpr bool op_in_scalar_run(Op op) {
  return !op_is_vector(op) && op != Op::kHalt && op != Op::kBarrier;
}

// A run ends at, and includes, its first branch or jump.
constexpr bool op_ends_scalar_run(Op op) {
  return op == Op::kBeq || op == Op::kBne || op == Op::kBlt || op == Op::kBge ||
         op == Op::kJal || op == Op::kJr;
}

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

// Predecode of an instruction sequence; aborts on a register number out of
// range. assemble() stores it in Program::decoded, which Machine::run needs.
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
