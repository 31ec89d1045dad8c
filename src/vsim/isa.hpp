// Instruction set of the simulated vector processor.
//
// The machine models the architecture of §II/§IV-A of the paper: a scalar
// core, a register-vector unit with section size s, a high-bandwidth vector
// memory unit, and the STM functional unit driven by the HiSM instruction
// extension (icm / v_ldb / v_stcr / v_ldcc / v_stb, cf. Fig. 7).
//
// Programs are sequences of decoded Instruction records; the PC is an index
// into that sequence (there is no binary encoding — this is a performance
// simulator, not an RTL model).
//
// Every opcode is declared once, as one row of SMTU_VSIM_OPS below: its
// mnemonic, operand form, functional unit, startup kind and flags. The Op
// enum and kOpTable are generated from the rows; the assembler, the
// predecoder and the per-opcode handler templates all read the table.
#pragma once

#include <string>

#include "support/types.hpp"

namespace smtu::vsim {

inline constexpr u32 kNumScalarRegs = 32;
inline constexpr u32 kNumVectorRegs = 16;
inline constexpr u32 kRegZero = 0;   // hardwired zero
inline constexpr u32 kRegRa = 31;    // link register (call/ret)
inline constexpr u32 kRegSp = 30;    // stack pointer by convention

// How an instruction's operands are written, and so which Instruction
// fields hold scalar registers, vector registers or an immediate. The
// assembler parses each form and the predecoder derives the registers an
// instruction reads and writes from it (with kStore below).
enum class Form : u8 {
  kNone,        // halt
  kR,           // jr rs
  kRR,          // mv rd, rs
  kRRR,         // add rd, rs1, rs2
  kRRI,         // addi rd, rs, imm
  kRI,          // li rd, imm
  kRRMem,       // amo_add rd, rs2, off(rs1)
  kRMem,        // lw rd, off(rs)
  kBranch,      // beq rs1, rs2, label
  kLabel,       // jal label
  kVMem,        // v_ld vd, off(rs)
  kVMemIdx,     // v_ldx vd, off(rs), vidx
  kVMemStride,  // v_lds vd, off(rs), rstride
  kVVV,         // v_add vd, vs1, vs2
  kVVI,         // v_addi vd, vs, imm
  kVVR,         // v_adds vd, vs, rs
  kVR,          // v_bcast vd, rs
  kVI,          // v_bcasti vd, imm
  kV,           // v_iota vd
  kRV,          // v_redsum rd, vs
  kRVR,         // v_extract rd, vs, rs
  kVV,          // v_ldcc vval, vpos
  kVVRR,        // v_ldb vval, vpos, rpos, rval
};

// Functional unit an instruction occupies. The three vector units' values
// match the Machine's internal unit indices.
enum class ExecUnit : u8 { kVMem = 0, kVAlu = 1, kStm = 2, kScalar = 3 };

// Which MachineConfig field supplies a vector instruction's startup
// latency. Resolved to a cycle count once per run (the config is
// per-Machine, the kind is per-opcode).
enum class StartupKind : u8 { kMem = 0, kValu = 1, kStmFill = 2, kStmDrain = 3, kNone = 4 };
inline constexpr usize kStartupKindCount = static_cast<usize>(StartupKind::kNone) + 1;

// Row flags (OpInfo::flags).
// Vector memory that moves one element per cycle (an address per element)
// rather than streaming at the port's byte rate.
inline constexpr u8 kIndexedVMem = 1u << 0;
// A scalar load or store: contends for the scalar memory ports.
inline constexpr u8 kScalarMem = 1u << 1;
// Operand `a`, and `b` of the kVV/kVVRR forms, is read rather than written.
inline constexpr u8 kStore = 1u << 2;
// A branch or jump: a straight-line scalar run ends at, and includes, it.
inline constexpr u8 kEndsRun = 1u << 3;
// A scalar instruction that leaves the core (`halt`, `barrier`): a run
// stops before it, as before any vector instruction.
inline constexpr u8 kNotInRun = 1u << 4;

// The instruction set, one row per opcode in encoding order:
//   X(enumerator, mnemonic, form, unit, startup kind, flags)
// Unit and startup kind are defined for the vector units only; the scalar
// core's rows read kScalar, kNone.
#define SMTU_VSIM_OPS(X)                                                                           \
  /*enumerator   mnemonic       form         unit     startup    flags */                          \
  /* Scalar ALU. */                                                                                \
  /* li rd, imm */                                                                                 \
  X(kLi,         "li",          kRI,         kScalar, kNone,     0)                                \
  /* mv rd, rs */                                                                                  \
  X(kMv,         "mv",          kRR,         kScalar, kNone,     0)                                \
  /* add rd, rs1, rs2 */                                                                           \
  X(kAdd,        "add",         kRRR,        kScalar, kNone,     0)                                \
  X(kSub,        "sub",         kRRR,        kScalar, kNone,     0)                                \
  X(kMul,        "mul",         kRRR,        kScalar, kNone,     0)                                \
  X(kAnd,        "and",         kRRR,        kScalar, kNone,     0)                                \
  X(kOr,         "or",          kRRR,        kScalar, kNone,     0)                                \
  X(kXor,        "xor",         kRRR,        kScalar, kNone,     0)                                \
  X(kSll,        "sll",         kRRR,        kScalar, kNone,     0)                                \
  X(kSrl,        "srl",         kRRR,        kScalar, kNone,     0)                                \
  X(kMin,        "min",         kRRR,        kScalar, kNone,     0)                                \
  X(kMax,        "max",         kRRR,        kScalar, kNone,     0)                                \
  /* addi rd, rs, imm */                                                                           \
  X(kAddi,       "addi",        kRRI,        kScalar, kNone,     0)                                \
  X(kMuli,       "muli",        kRRI,        kScalar, kNone,     0)                                \
  X(kAndi,       "andi",        kRRI,        kScalar, kNone,     0)                                \
  X(kSlli,       "slli",        kRRI,        kScalar, kNone,     0)                                \
  X(kSrli,       "srli",        kRRI,        kScalar, kNone,     0)                                \
  /* Scalar float (IEEE-754 single in the low 32 bits). */                                         \
  /* fadd rd, rs1, rs2 */                                                                          \
  X(kFAdd,       "fadd",        kRRR,        kScalar, kNone,     0)                                \
  X(kFMul,       "fmul",        kRRR,        kScalar, kNone,     0)                                \
  /* Scalar memory. */                                                                             \
  /* lw rd, off(rs)   (32-bit zero-extended) */                                                    \
  X(kLw,         "lw",          kRMem,       kScalar, kNone,     kScalarMem)                       \
  /* sw rs2, off(rs) */                                                                            \
  X(kSw,         "sw",          kRMem,       kScalar, kNone,     kScalarMem | kStore)              \
  /* lhu rd, off(rs) */                                                                            \
  X(kLhu,        "lhu",         kRMem,       kScalar, kNone,     kScalarMem)                       \
  X(kSh,         "sh",          kRMem,       kScalar, kNone,     kScalarMem | kStore)              \
  X(kLbu,        "lbu",         kRMem,       kScalar, kNone,     kScalarMem)                       \
  X(kSb,         "sb",          kRMem,       kScalar, kNone,     kScalarMem | kStore)              \
  /* Control. */                                                                                   \
  /* beq rs1, rs2, label */                                                                        \
  X(kBeq,        "beq",         kBranch,     kScalar, kNone,     kEndsRun)                         \
  X(kBne,        "bne",         kBranch,     kScalar, kNone,     kEndsRun)                         \
  /* signed */                                                                                     \
  X(kBlt,        "blt",         kBranch,     kScalar, kNone,     kEndsRun)                         \
  X(kBge,        "bge",         kBranch,     kScalar, kNone,     kEndsRun)                         \
  /* jal label  (link in ra) */                                                                    \
  X(kJal,        "jal",         kLabel,      kScalar, kNone,     kEndsRun)                         \
  /* jr rs */                                                                                      \
  X(kJr,         "jr",          kR,          kScalar, kNone,     kEndsRun)                         \
  X(kHalt,       "halt",        kNone,       kScalar, kNone,     kNotInRun)                        \
  X(kNop,        "nop",         kNone,       kScalar, kNone,     0)                                \
  /* Vector length control. ssvl is the paper's strip-mining primitive:                            \
     vl = min(s, R[rs]); R[rs] -= vl. */                                                           \
  X(kSsvl,       "ssvl",        kR,          kScalar, kNone,     0)                                \
  /* setvl rd, rs : vl = min(s, R[rs]); R[rd] = vl */                                              \
  X(kSetvl,      "setvl",       kRR,         kScalar, kNone,     0)                                \
  /* Vector memory (32-bit elements). */                                                           \
  /* v_ld vd, off(rs)          contiguous */                                                       \
  X(kVLd,        "v_ld",        kVMem,       kVMem,   kMem,      0)                                \
  /* v_st vs, off(rs) */                                                                           \
  X(kVSt,        "v_st",        kVMem,       kVMem,   kMem,      kStore)                           \
  /* v_ldx vd, off(rs), vidx   gather from base + 4*idx */                                         \
  X(kVLdx,       "v_ldx",       kVMemIdx,    kVMem,   kMem,      kIndexedVMem)                     \
  /* v_stx vs, off(rs), vidx   scatter */                                                          \
  X(kVStx,       "v_stx",       kVMemIdx,    kVMem,   kMem,      kIndexedVMem | kStore)            \
  /* v_lds vd, off(rs), rstride  strided: element i at base + i*R[rstride] */                      \
  X(kVLds,       "v_lds",       kVMemStride, kVMem,   kMem,      kIndexedVMem)                     \
  /* v_sts vs, off(rs), rstride */                                                                 \
  X(kVSts,       "v_sts",       kVMemStride, kVMem,   kMem,      kIndexedVMem | kStore)            \
  /* Vector integer ALU. */                                                                        \
  /* v_add vd, vs1, vs2 */                                                                         \
  X(kVAdd,       "v_add",       kVVV,        kVAlu,   kValu,     0)                                \
  X(kVSub,       "v_sub",       kVVV,        kVAlu,   kValu,     0)                                \
  X(kVMul,       "v_mul",       kVVV,        kVAlu,   kValu,     0)                                \
  X(kVAnd,       "v_and",       kVVV,        kVAlu,   kValu,     0)                                \
  X(kVOr,        "v_or",        kVVV,        kVAlu,   kValu,     0)                                \
  X(kVXor,       "v_xor",       kVVV,        kVAlu,   kValu,     0)                                \
  /* unsigned */                                                                                   \
  X(kVMin,       "v_min",       kVVV,        kVAlu,   kValu,     0)                                \
  X(kVMax,       "v_max",       kVVV,        kVAlu,   kValu,     0)                                \
  /* v_addi vd, vs, imm       (paper: v_add_imm) */                                                \
  X(kVAddi,      "v_addi",      kVVI,        kVAlu,   kValu,     0)                                \
  /* v_adds vd, vs, rs */                                                                          \
  X(kVAdds,      "v_adds",      kVVR,        kVAlu,   kValu,     0)                                \
  /* v_bcast vd, rs */                                                                             \
  X(kVBcast,     "v_bcast",     kVR,         kVAlu,   kValu,     0)                                \
  /* v_bcasti vd, imm       (paper: v_setimm) */                                                   \
  X(kVBcasti,    "v_bcasti",    kVI,         kVAlu,   kValu,     0)                                \
  /* v_iota vd */                                                                                  \
  X(kVIota,      "v_iota",      kV,          kVAlu,   kValu,     0)                                \
  /* v_slideup vd, vs, imm : vd[i] = i >= imm ? vs[i-imm] : 0 */                                   \
  X(kVSlideUp,   "v_slideup",   kVVI,        kVAlu,   kValu,     0)                                \
  /* v_slidedown vd, vs, imm : vd[i] = vs[i+imm] or 0 */                                           \
  X(kVSlideDown, "v_slidedown", kVVI,        kVAlu,   kValu,     0)                                \
  /* v_redsum rd, vs */                                                                            \
  X(kVRedSum,    "v_redsum",    kRV,         kVAlu,   kValu,     0)                                \
  /* v_extract rd, vs, rs : rd = vs[R[rs]] */                                                      \
  X(kVExtract,   "v_extract",   kRVR,        kVAlu,   kValu,     0)                                \
  /* Vector compares producing 0/1 lanes (the mask vectors of §IV-A). */                           \
  /* v_seq vd, vs1, vs2 : vd[i] = vs1[i] == vs2[i] */                                              \
  X(kVSeq,       "v_seq",       kVVV,        kVAlu,   kValu,     0)                                \
  /* v_seqs vd, vs, rs  : vd[i] = vs[i] == R[rs] */                                                \
  X(kVSeqS,      "v_seqs",      kVVR,        kVAlu,   kValu,     0)                                \
  /* Vector float (IEEE-754 single on the 32-bit lanes). */                                        \
  X(kVFAdd,      "v_fadd",      kVVV,        kVAlu,   kValu,     0)                                \
  X(kVFMul,      "v_fmul",      kVVV,        kVAlu,   kValu,     0)                                \
  /* v_fredsum rd, vs : float sum reduction, result bits in rd */                                  \
  X(kVFRedSum,   "v_fredsum",   kRV,         kVAlu,   kValu,     0)                                \
  /* HiSM / STM extension (Fig. 7 of the paper). */                                                \
  /* icm : reset the s x s memory indicators */                                                    \
  X(kIcm,        "icm",         kNone,       kStm,    kNone,     0)                                \
  /* v_ldb vval, vpos, rpos, rval : load vl block-array entries;                                   \
       auto-increments R[rpos] += 2*vl and R[rval] += 4*vl */                                      \
  X(kVLdb,       "v_ldb",       kVVRR,       kVMem,   kMem,      0)                                \
  /* v_stcr vval, vpos : store row-wise into the s x s memory */                                   \
  X(kVStcr,      "v_stcr",      kVV,         kStm,    kStmFill,  kStore)                           \
  /* v_ldcc vval, vpos : load column-wise (transposed) from it */                                  \
  X(kVLdcc,      "v_ldcc",      kVV,         kStm,    kStmDrain, 0)                                \
  /* v_stb vval, vpos, rpos, rval : store entries to memory */                                     \
  X(kVStb,       "v_stb",       kVVRR,       kVMem,   kMem,      kStore)                           \
  /* v_stbv vval, rval : store values only (lengths-vector pass) */                                \
  X(kVStbv,      "v_stbv",      kVR,         kVMem,   kMem,      kStore)                           \
  /* HiSM SpMV extension (after the companion paper's block multiply-                              \
     accumulate): positional gather/scatter keyed by the packed block                              \
     positions that v_ldb produces. Unlike general gather/scatter, these                           \
     address an s-element window that the hardware banks like the s x s                            \
     memory, so they stream at the lane rate p instead of 1 element/cycle. */                      \
  /* v_gthc vd, off(rs), vpos : vd[i] = mem32[rs + off + 4*col(pos_i)] */                          \
  X(kVGthC,      "v_gthc",      kVMemIdx,    kVMem,   kMem,      0)                                \
  /* v_scar vs, off(rs), vpos : memf32[rs + off + 4*row(pos_i)] += vs[i] */                        \
  X(kVScaR,      "v_scar",      kVMemIdx,    kVMem,   kMem,      kStore)                           \
  /* Their mirror images, keyed by the other position byte. Together the                           \
     four give transpose-free products with A^T: the same block stream                             \
     drives y[col] += value * x[row]. */                                                           \
  /* v_gthr vd, off(rs), vpos : vd[i] = mem32[rs + off + 4*row(pos_i)] */                          \
  X(kVGthR,      "v_gthr",      kVMemIdx,    kVMem,   kMem,      0)                                \
  /* v_scac vs, off(rs), vpos : memf32[rs + off + 4*col(pos_i)] += vs[i] */                        \
  X(kVScaC,      "v_scac",      kVMemIdx,    kVMem,   kMem,      kStore)                           \
  /* General indexed scatter-accumulate: the read-modify-write sibling of                          \
     v_stx, used by the SpGEMM kernel to merge a scaled B row into a dense                         \
     accumulator row (C[i, jb] += a * B[k, jb]). Unlike the positional                             \
     v_scar/v_scac it takes full 32-bit indices, so it pays the indexed                            \
     vector-memory rate (one element per cycle) like v_ldx/v_stx. */                               \
  /* v_scax vs, off(rs), vidx : memf32[rs + off + 4*vidx[i]] += vs[i] */                           \
  X(kVScaX,      "v_scax",      kVMemIdx,    kVMem,   kMem,      kIndexedVMem | kStore)            \
  /* Multi-core synchronization (docs/MULTICORE.md). On a MultiCoreSystem a                        \
     core reaching `barrier` waits until every other live core reaches one;                        \
     on a standalone Machine it completes immediately. */                                          \
  /* barrier */                                                                                    \
  X(kBarrier,    "barrier",     kNone,       kScalar, kNone,     kNotInRun)                        \
  /* Atomic fetch-and-add on a 32-bit word, the histogram primitive of the                         \
     parallel CRS transpose baseline. Atomicity is free in simulation: the                         \
     system interleaves whole instructions deterministically. */                                   \
  /* amo_add rd, rs2, off(rs1) : rd = mem32[rs1+off]; mem32 += rs2 */                              \
  X(kAmoAdd,     "amo_add",     kRRMem,      kScalar, kNone,     kScalarMem)

enum class Op : u8 {
#define SMTU_OP_ENUMERATOR(name, ...) name,
  SMTU_VSIM_OPS(SMTU_OP_ENUMERATOR)
#undef SMTU_OP_ENUMERATOR
};

struct OpInfo {
  Op op;
  const char* mnemonic;
  Form form;
  ExecUnit unit;
  StartupKind startup;
  u8 flags;
};

inline constexpr OpInfo kOpTable[] = {
#define SMTU_OP_ROW(name, mnemonic, form, unit, startup, flags) \
  {Op::name, mnemonic, Form::form, ExecUnit::unit, StartupKind::startup, flags},
    SMTU_VSIM_OPS(SMTU_OP_ROW)
#undef SMTU_OP_ROW
};

// Number of opcodes. Used by tooling that iterates the ISA (docs coverage
// test, trace exporters) and by the handler table.
inline constexpr usize kOpCount = sizeof(kOpTable) / sizeof(kOpTable[0]);

constexpr bool op_table_in_enum_order() {
  for (usize i = 0; i < kOpCount; ++i) {
    if (kOpTable[i].op != static_cast<Op>(i)) return false;
  }
  return true;
}
static_assert(op_table_in_enum_order(), "kOpTable row i must describe Op i");

// The opcode's row. Constexpr, so the predecoder and the per-opcode handler
// templates share one classification, folded at compile time.
constexpr const OpInfo& op_info(Op op) { return kOpTable[static_cast<usize>(op)]; }

constexpr const char* op_name(Op op) { return op_info(op).mnemonic; }

// Whether an opcode executes on the vector side (vector memory, vector ALU,
// or the STM) as opposed to the scalar core.
constexpr bool op_is_vector(Op op) { return op_info(op).unit != ExecUnit::kScalar; }

// Functional unit and startup kind of a vector instruction.
constexpr ExecUnit op_unit(Op op) { return op_info(op).unit; }
constexpr StartupKind op_startup(Op op) { return op_info(op).startup; }

constexpr bool op_indexed_vmem(Op op) { return (op_info(op).flags & kIndexedVMem) != 0; }
constexpr bool op_scalar_mem(Op op) { return (op_info(op).flags & kScalarMem) != 0; }

// Straight-line scalar runs (DecodedInst::run_len). A run holds scalar
// instructions only and stops before anything that leaves the scalar
// core: a vector instruction, `barrier` or `halt`.
constexpr bool op_in_scalar_run(Op op) {
  return !op_is_vector(op) && (op_info(op).flags & kNotInRun) == 0;
}

// A run ends at, and includes, its first branch or jump.
constexpr bool op_ends_scalar_run(Op op) { return (op_info(op).flags & kEndsRun) != 0; }

// Decoded instruction. Register fields a..d are scalar or vector register
// indices depending on the opcode (see the per-op comments above); imm holds
// immediates, scalar-memory offsets, and resolved branch/jump targets
// (instruction indices).
struct Instruction {
  Op op = Op::kNop;
  u8 a = 0;
  u8 b = 0;
  u8 c = 0;
  u8 d = 0;
  i64 imm = 0;
  u32 source_line = 0;
};

// Human-readable rendering for traces and assembler diagnostics.
std::string to_string(const Instruction& inst);

}  // namespace smtu::vsim
