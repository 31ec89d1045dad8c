#include "vsim/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/strings.hpp"
#include "vsim/profiler.hpp"

// Marks the element-wise inner loops that are safe to vectorize: every
// iteration touches only lane i of its operands, so there are no loop-carried
// dependences even when destination and source registers alias. Never put
// this on float reductions (reassociation changes the result bits) or on
// read-modify-write scatters (later lanes may hit earlier lanes' addresses).
#if defined(__clang__)
#define SMTU_VEC_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define SMTU_VEC_LOOP _Pragma("GCC ivdep")
#else
#define SMTU_VEC_LOOP
#endif

// For the helpers that take an IssueState: a scalar run keeps its issue
// state in registers only while every call that takes the local's address
// is inlined (exec_scalar_run).
#if defined(__GNUC__) || defined(__clang__)
#define SMTU_ALWAYS_INLINE [[gnu::always_inline]] inline
#else
#define SMTU_ALWAYS_INLINE inline
#endif

namespace smtu::vsim {
namespace {

StmConfig stm_config_for(const MachineConfig& config) {
  StmConfig stm = config.stm;
  stm.section = config.section;  // the s x s memory matches the section size
  stm.lines = std::min(stm.lines, stm.section);  // L cannot exceed s
  return stm;
}

void check_config(const MachineConfig& config) {
  SMTU_CHECK_MSG(config.section >= 2 && config.section <= 256,
                 "section size must be in [2, 256]");
  SMTU_CHECK(config.lanes >= 1);
  SMTU_CHECK(config.scalar_issue_width >= 1);
  SMTU_CHECK(config.mem_bytes_per_cycle >= 1);
}

template <Op>
inline constexpr bool always_false_op = false;

constexpr u32 ceil_rate(u64 amount, u64 per_cycle) {
  return static_cast<u32>(ceil_div(amount, per_cycle));
}

// Issue bookkeeping shared by the vector and scalar handlers; `is` is the
// issue state in use (ExecState::issue, or a scalar run's local copy).
SMTU_ALWAYS_INLINE Cycle take_issue_slot(IssueState& is, Cycle earliest) {
  if (earliest > is.issue_cycle) {
    is.issue_cycle = earliest;
    is.issue_used = 0;
  }
  if (is.issue_used >= is.issue_width) {
    ++is.issue_cycle;
    is.issue_used = 0;
  }
  ++is.issue_used;
  return is.issue_cycle;
}

SMTU_ALWAYS_INLINE Cycle take_scalar_mem_slot(IssueState& is, Cycle earliest) {
  if (earliest > is.scalar_mem_cycle) {
    is.scalar_mem_cycle = earliest;
    is.scalar_mem_used = 0;
  }
  if (is.scalar_mem_used >= is.scalar_mem_ports) {
    ++is.scalar_mem_cycle;
    is.scalar_mem_used = 0;
  }
  ++is.scalar_mem_used;
  return is.scalar_mem_cycle;
}

// A scalar result in `dest` becomes readable at `ready`.
SMTU_ALWAYS_INLINE void retire_scalar(ExecState& es, IssueState& is, u32 dest, Cycle ready) {
  if (dest != kRegZero) es.sreg_ready[dest] = std::max(es.sreg_ready[dest], ready);
  is.bump_watermark(ready);
}

// Machine::enable_trace output: one stderr line per executed instruction
// while the allowance lasts.
inline void trace_line(ExecState& es, usize pc, const Instruction& inst) {
  if (es.trace_remaining > 0) [[unlikely]] {
    --es.trace_remaining;
    std::fprintf(stderr, "[trace] pc=%zu %s\n", pc, to_string(inst).c_str());
  }
}

// Shared front of every handler: budget check, instruction count, optional
// stderr trace. Returns the watermark before this instruction (the
// profiler's conservation bracket). A scalar run checks the budget and
// counts once for the whole run (Machine::run, exec_scalar_run).
inline Cycle step_prologue(ExecState& es, const Instruction& inst) {
  SMTU_CHECK_MSG(es.stats.instructions < es.max_instructions,
                 "instruction budget exceeded (runaway program?)");
  ++es.stats.instructions;
  trace_line(es, es.issue.pc, inst);
  return es.issue.watermark;
}

// Hands one executed instruction's record to the attached observers. The
// reporting sites build the record only when one is attached.
inline void report(const ExecState& es, const InstRecord& record) {
  if (es.trace_sink != nullptr) es.trace_sink->record(record);
  if (es.profiler != nullptr) es.profiler->record(record);
}

// Main-memory footprint of a vector memory instruction (primary base
// address + total bytes moved), for bank arbitration. The bank model
// arbitrates one request per vector memory instruction: its total traffic
// laid out from its primary base. Multi-stream instructions (v_ldb/v_stb
// move a position and a value stream) fold into one request, so an
// instruction can never contend with itself. Must be evaluated before the
// functional body: v_ldb/v_stb auto-increment their base regs.
template <Op OP>
inline void vmem_footprint_for(const ExecState& es, const Instruction& inst, Addr* addr,
                               u64* bytes) {
  const u64 vl = es.vl;
  if constexpr (OP == Op::kVLdb || OP == Op::kVStb) {
    *addr = es.sreg(inst.c);
    *bytes = 6ull * vl;
  } else if constexpr (OP == Op::kVStbv) {
    *addr = es.sreg(inst.b);
    *bytes = 4ull * vl;
  } else if constexpr (OP == Op::kVScaR || OP == Op::kVScaC || OP == Op::kVScaX) {
    // Read-modify-write: both directions count.
    *addr = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    *bytes = 8ull * vl;
  } else {
    *addr = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    *bytes = 4ull * vl;
  }
}

// Functional execution of one vector instruction; returns its duration in
// cycles at full streaming rate (excluding startup). Contiguous accesses
// move through one bounds check + memcpy per stream instead of a checked
// call per element; the span is exactly the union of the element accesses,
// so an access aborts exactly when one of its elements is out of range.
template <Op OP>
inline u32 exec_vector_body(ExecState& es, const Instruction& inst) {
  [[maybe_unused]] const u32 vl = es.vl;

  if constexpr (OP == Op::kVLd) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    if (vl != 0) std::memcpy(es.vreg_row(inst.a), mem.read_span(base, 4ull * vl), 4ull * vl);
    es.stats.mem_contiguous_bytes += 4ull * vl;
    return ceil_rate(4ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVSt) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    if (vl != 0) std::memcpy(mem.write_span(base, 4ull * vl), es.vreg_row(inst.a), 4ull * vl);
    es.stats.mem_contiguous_bytes += 4ull * vl;
    return ceil_rate(4ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVLdx) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* idx = es.vreg_row(inst.c);
    u32* dst = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) dst[i] = mem.read_u32(base + 4ull * idx[i]);
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kVStx) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* idx = es.vreg_row(inst.c);
    const u32* src = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) mem.write_u32(base + 4ull * idx[i], src[i]);
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kVLds) {
    // Strided accesses hit one bank per element, like indexed ones.
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u64 stride = es.sreg(inst.c);
    u32* dst = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) dst[i] = mem.read_u32(base + i * stride);
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kVSts) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u64 stride = es.sreg(inst.c);
    const u32* src = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) mem.write_u32(base + i * stride, src[i]);
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kVAdd || OP == Op::kVSub || OP == Op::kVMul ||
                       OP == Op::kVAnd || OP == Op::kVOr || OP == Op::kVXor ||
                       OP == Op::kVMin || OP == Op::kVMax || OP == Op::kVSeq) {
    u32* a = es.vreg_row(inst.a);
    const u32* b = es.vreg_row(inst.b);
    const u32* c = es.vreg_row(inst.c);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) {
      if constexpr (OP == Op::kVAdd) a[i] = b[i] + c[i];
      else if constexpr (OP == Op::kVSub) a[i] = b[i] - c[i];
      else if constexpr (OP == Op::kVMul) a[i] = b[i] * c[i];
      else if constexpr (OP == Op::kVAnd) a[i] = b[i] & c[i];
      else if constexpr (OP == Op::kVOr) a[i] = b[i] | c[i];
      else if constexpr (OP == Op::kVXor) a[i] = b[i] ^ c[i];
      else if constexpr (OP == Op::kVMin) a[i] = std::min(b[i], c[i]);
      else if constexpr (OP == Op::kVMax) a[i] = std::max(b[i], c[i]);
      else a[i] = b[i] == c[i] ? 1 : 0;
    }
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVFAdd || OP == Op::kVFMul) {
    // Lane-wise float: no reassociation, so vectorizing is bit-exact.
    u32* a = es.vreg_row(inst.a);
    const u32* b = es.vreg_row(inst.b);
    const u32* c = es.vreg_row(inst.c);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) {
      if constexpr (OP == Op::kVFAdd) {
        a[i] = std::bit_cast<u32>(std::bit_cast<float>(b[i]) + std::bit_cast<float>(c[i]));
      } else {
        a[i] = std::bit_cast<u32>(std::bit_cast<float>(b[i]) * std::bit_cast<float>(c[i]));
      }
    }
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVAddi) {
    u32* a = es.vreg_row(inst.a);
    const u32* b = es.vreg_row(inst.b);
    const u32 imm = static_cast<u32>(inst.imm);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) a[i] = b[i] + imm;
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVAdds || OP == Op::kVSeqS) {
    u32* a = es.vreg_row(inst.a);
    const u32* b = es.vreg_row(inst.b);
    const u32 scalar = static_cast<u32>(es.sreg(inst.c));
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) {
      if constexpr (OP == Op::kVAdds) a[i] = b[i] + scalar;
      else a[i] = b[i] == scalar ? 1 : 0;
    }
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVBcast || OP == Op::kVBcasti) {
    u32* a = es.vreg_row(inst.a);
    const u32 value = OP == Op::kVBcast ? static_cast<u32>(es.sreg(inst.b))
                                        : static_cast<u32>(inst.imm);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) a[i] = value;
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVIota) {
    u32* a = es.vreg_row(inst.a);
    SMTU_VEC_LOOP
    for (u32 i = 0; i < vl; ++i) a[i] = i;
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVSlideUp || OP == Op::kVSlideDown) {
    const u32 shift = static_cast<u32>(inst.imm);
    es.slide_scratch.assign(vl, 0);
    const u32* src = es.vreg_row(inst.b);
    for (u32 i = 0; i < vl; ++i) {
      if constexpr (OP == Op::kVSlideUp) {
        if (i >= shift) es.slide_scratch[i] = src[i - shift];
      } else {
        if (i + shift < vl) es.slide_scratch[i] = src[i + shift];
      }
    }
    std::copy(es.slide_scratch.begin(), es.slide_scratch.end(), es.vreg_row(inst.a));
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVRedSum) {
    const u32* b = es.vreg_row(inst.b);
    u64 total = 0;
    for (u32 i = 0; i < vl; ++i) total += b[i];
    es.set_sreg(inst.a, total);
    // Lane-parallel partial sums plus a log-depth combine.
    return ceil_rate(vl, es.lanes) + log2_ceil(es.lanes + 1);
  } else if constexpr (OP == Op::kVFRedSum) {
    // Sequential accumulation order is architectural: do not vectorize.
    const u32* b = es.vreg_row(inst.b);
    float total = 0.0f;
    for (u32 i = 0; i < vl; ++i) total += std::bit_cast<float>(b[i]);
    es.set_sreg(inst.a, std::bit_cast<u32>(total));
    return ceil_rate(vl, es.lanes) + log2_ceil(es.lanes + 1);
  } else if constexpr (OP == Op::kVExtract) {
    const u64 lane = es.sreg(inst.c);
    SMTU_CHECK_MSG(lane < es.section, "v_extract lane out of range");
    es.set_sreg(inst.a, es.vreg_row(inst.b)[lane]);
    return 1;
  } else if constexpr (OP == Op::kVGthC || OP == Op::kVGthR) {
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* pos = es.vreg_row(inst.c);
    u32* dst = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) {
      const u32 lane = OP == Op::kVGthC ? (pos[i] >> 8) & 0xff : pos[i] & 0xff;
      dst[i] = mem.read_u32(base + 4ull * lane);
    }
    // Positional access touches an s-element window only, which the HiSM
    // hardware banks like the s x s memory: full lane-parallel rate.
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.lanes);
  } else if constexpr (OP == Op::kVScaR || OP == Op::kVScaC) {
    // Read-modify-write scatter: lanes may collide on an address, so the
    // sequential order is architectural — do not vectorize.
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* pos = es.vreg_row(inst.c);
    const u32* val = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) {
      const u32 lane = OP == Op::kVScaR ? pos[i] & 0xff : (pos[i] >> 8) & 0xff;
      const Addr addr = base + 4ull * lane;
      mem.write_u32(addr, std::bit_cast<u32>(std::bit_cast<float>(mem.read_u32(addr)) +
                                             std::bit_cast<float>(val[i])));
    }
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.lanes);  // banked s-element window
  } else if constexpr (OP == Op::kVScaX) {
    // General-index sibling of v_scac: full 32-bit indices, so it streams
    // at the indexed rate (one address per element) like v_ldx/v_stx.
    Memory& mem = *es.memory;
    const Addr base = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32* idx = es.vreg_row(inst.c);
    const u32* val = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) {
      const Addr addr = base + 4ull * idx[i];
      mem.write_u32(addr, std::bit_cast<u32>(std::bit_cast<float>(mem.read_u32(addr)) +
                                             std::bit_cast<float>(val[i])));
    }
    es.stats.mem_indexed_elements += vl;
    return ceil_rate(vl, es.mem_indexed_elems_per_cycle);
  } else if constexpr (OP == Op::kIcm) {
    es.stm->clear();
    return 1;
  } else if constexpr (OP == Op::kVLdb) {
    Memory& mem = *es.memory;
    const Addr pos_addr = es.sreg(inst.c);
    const Addr val_addr = es.sreg(inst.d);
    u32* val = es.vreg_row(inst.a);
    u32* pos = es.vreg_row(inst.b);
    if (vl != 0) {
      const u8* pos_src = mem.read_span(pos_addr, 2ull * vl);
      SMTU_VEC_LOOP
      for (u32 i = 0; i < vl; ++i) {
        pos[i] = static_cast<u32>(pos_src[2 * i]) | static_cast<u32>(pos_src[2 * i + 1]) << 8;
      }
      std::memcpy(val, mem.read_span(val_addr, 4ull * vl), 4ull * vl);
    }
    es.set_sreg(inst.c, pos_addr + 2ull * vl);
    es.set_sreg(inst.d, val_addr + 4ull * vl);
    es.stats.mem_contiguous_bytes += 6ull * vl;
    return ceil_rate(6ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVStb) {
    // The position and value streams must not overlap (kernel contract).
    // Finish the position bytes before taking the value span: write_span
    // may reallocate the backing store and invalidate earlier pointers.
    Memory& mem = *es.memory;
    const Addr pos_addr = es.sreg(inst.c);
    const Addr val_addr = es.sreg(inst.d);
    const u32* val = es.vreg_row(inst.a);
    const u32* pos = es.vreg_row(inst.b);
    if (vl != 0) {
      u8* pos_dst = mem.write_span(pos_addr, 2ull * vl);
      SMTU_VEC_LOOP
      for (u32 i = 0; i < vl; ++i) {
        pos_dst[2 * i] = static_cast<u8>(pos[i]);
        pos_dst[2 * i + 1] = static_cast<u8>(pos[i] >> 8);
      }
      std::memcpy(mem.write_span(val_addr, 4ull * vl), val, 4ull * vl);
    }
    es.set_sreg(inst.c, pos_addr + 2ull * vl);
    es.set_sreg(inst.d, val_addr + 4ull * vl);
    es.stats.mem_contiguous_bytes += 6ull * vl;
    return ceil_rate(6ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVStbv) {
    Memory& mem = *es.memory;
    const Addr val_addr = es.sreg(inst.b);
    if (vl != 0) std::memcpy(mem.write_span(val_addr, 4ull * vl), es.vreg_row(inst.a), 4ull * vl);
    es.set_sreg(inst.b, val_addr + 4ull * vl);
    es.stats.mem_contiguous_bytes += 4ull * vl;
    return ceil_rate(4ull * vl, es.mem_bytes_per_cycle);
  } else if constexpr (OP == Op::kVStcr) {
    es.stm_batch_scratch.resize(vl);
    const u32* pos = es.vreg_row(inst.b);
    const u32* val = es.vreg_row(inst.a);
    for (u32 i = 0; i < vl; ++i) {
      const u32 p = pos[i];
      es.stm_batch_scratch[i] = {static_cast<u8>(p & 0xff), static_cast<u8>((p >> 8) & 0xff),
                                 val[i]};
    }
    es.stats.stm_elements += vl;
    return es.stm->write_batch(es.stm_batch_scratch);
  } else if constexpr (OP == Op::kVLdcc) {
    const StmUnit::ReadBatch batch = es.stm->read_batch(vl);
    u32* val = es.vreg_row(inst.a);
    u32* pos = es.vreg_row(inst.b);
    for (u32 i = 0; i < vl; ++i) {
      val[i] = batch.entries[i].value_bits;
      pos[i] = static_cast<u32>(batch.entries[i].row) |
               static_cast<u32>(batch.entries[i].col) << 8;
    }
    es.stats.stm_elements += vl;
    return batch.cycles;
  } else {
    static_assert(always_false_op<OP>, "not a vector op");
  }
}

// Full execution of one vector instruction under the resource-time model:
// hazards, issue slots, unit occupancy, chaining, STM bank ordering, bank
// contention, then the functional body. The per-opcode instantiation lets
// the unit/startup/trace classification and the STM special cases resolve
// at compile time.
template <Op OP>
void exec_vector(ExecState& es, const Instruction& inst, const DecodedInst& dec) {
  const Cycle w_before = step_prologue(es, inst);
  ++es.stats.vector_instructions;
  es.stats.vector_elements += es.vl;
  IssueState& is = es.issue;

  // Scalar sources the instruction needs at issue (predecoded). Alongside
  // the ready time, track which constraint set it (the profiler's stall
  // reason); strictly-later constraints win, so ties keep the first-listed
  // reason.
  Cycle ready = is.pc_redirect;
  StallReason stall_why = StallReason::kScalarFetch;
  if (es.vl_ready > ready) {
    ready = es.vl_ready;
    stall_why = StallReason::kRawHazard;
  }
  for (u32 i = 0; i < dec.num_sregs; ++i) {
    const Cycle r = es.sreg_ready[dec.sregs[i]];
    if (r > ready) {
      ready = r;
      stall_why = StallReason::kRawHazard;
    }
  }
  // Start absent hazard/resource constraints: the fetch point plus
  // sequential issue — the profiler's baseline for constraint delay.
  const Cycle unblocked = std::max(is.pc_redirect, is.last_issue + 1);
  const Cycle t_issue = take_issue_slot(is, std::max(ready, is.last_issue));
  is.last_issue = t_issue;
  if (t_issue > ready) stall_why = StallReason::kIssueLimit;

  constexpr ExecUnit kUnit = op_unit(OP);
  constexpr usize kUnitIdx = static_cast<usize>(kUnit);
  const u32 startup = es.startup_by_kind[static_cast<usize>(op_startup(OP))];

  // Which bank an STM instruction touches (known before execution: the
  // fill side for icm/v_stcr, the peeked drain bank for v_ldcc).
  [[maybe_unused]] u32 stm_op_bank = 0;
  Cycle resource_ready = es.unit_free[kUnitIdx];
  if constexpr (OP == Op::kVLdcc) {
    stm_op_bank = es.stm->peek_drain_bank();
    // A bank drains only after its fill completed; a separate drain
    // datapath exists only with the second buffer.
    resource_ready = es.stm_double
                         ? std::max(es.stm_drain_free, es.stm_fill_done[stm_op_bank])
                         : std::max(es.unit_free[kUnitIdx], es.stm_fill_done[stm_op_bank]);
  } else if constexpr (OP == Op::kIcm) {
    if (es.stm_double) {
      // Switching banks: the incoming bank's drain must have finished.
      stm_op_bank = es.stm->fill_bank() ^ 1;
      resource_ready = std::max(es.unit_free[kUnitIdx], es.stm_drain_done[stm_op_bank]);
    }
  } else if constexpr (kUnit == ExecUnit::kStm) {
    stm_op_bank = es.stm_double ? es.stm->fill_bank() : 0u;
  }

  // Start time: issue, unit availability, producers' first element (or
  // completion without chaining), and hazards on the destinations.
  Cycle t_start = t_issue;
  const auto bind = [&](Cycle term, StallReason reason) {
    if (term > t_start) {
      t_start = term;
      stall_why = reason;
    }
  };
  bind(resource_ready,
       kUnit == ExecUnit::kVMem
           ? (es.vmem_last_indexed ? StallReason::kMemIndexedSerial : StallReason::kMemPort)
           : (kUnit == ExecUnit::kStm ? StallReason::kStmBusy : StallReason::kValuBusy));
  Cycle src_last = 0;
  for (u32 i = 0; i < dec.num_srcs; ++i) {
    const u8 r = dec.srcs[i];
    bind(es.chaining ? es.vreg_first[r] : es.vreg_last[r],
         es.chaining ? StallReason::kChainingWait : StallReason::kRawHazard);
    src_last = std::max(src_last, es.vreg_last[r]);
  }
  for (u32 i = 0; i < dec.num_dsts; ++i) {
    const u8 r = dec.dsts[i];
    bind(std::max(es.vreg_readers_done[r], es.vreg_last[r]), StallReason::kVregBusy);
  }

  // Shared banked memory: the access may be pushed back behind another
  // core's occupancy of the banks it touches. A lone core never pushes
  // itself back (its per-bank occupancy is bounded by its own access
  // duration), which keeps the N=1 system bit-identical.
  if constexpr (kUnit == ExecUnit::kVMem) {
    if (es.memory_system != nullptr) {
      Addr mem_addr = 0;
      u64 mem_bytes = 0;
      vmem_footprint_for<OP>(es, inst, &mem_addr, &mem_bytes);
      const Cycle granted = es.memory_system->request(mem_addr, mem_bytes, t_start);
      if (granted > t_start) {
        t_start = granted;
        stall_why = StallReason::kMemBankContention;
      }
    }
  }

  const u32 duration = exec_vector_body<OP>(es, inst);

  const Cycle first_out = t_start + startup + 1;
  const Cycle last_out =
      std::max(t_start + startup + duration, src_last == 0 ? 0 : src_last + startup);
  // Pipelined units are occupied for their transfer slots only; the
  // startup is latency that later, independent instructions overlap.
  // The STM is the exception: the s x s memory is a single buffer, so
  // the unit stays busy until its results drain.
  const bool pipelined =
      (kUnit == ExecUnit::kVMem && es.mem_pipelined_startup) || kUnit == ExecUnit::kVAlu;
  const Cycle busy_until = pipelined ? std::max(t_start + duration, src_last) : last_out;
  if constexpr (OP == Op::kVLdcc) {
    if (es.stm_double) {
      es.stm_drain_free = std::max(es.stm_drain_free, busy_until);
    } else {
      es.unit_free[kUnitIdx] = std::max(es.unit_free[kUnitIdx], busy_until);
    }
    es.stm_drain_done[stm_op_bank] = std::max(es.stm_drain_done[stm_op_bank], last_out);
  } else if constexpr (kUnit == ExecUnit::kStm) {
    es.unit_free[kUnitIdx] = std::max(es.unit_free[kUnitIdx], busy_until);
    es.stm_fill_done[stm_op_bank] = std::max(es.stm_fill_done[stm_op_bank], last_out);
  } else {
    es.unit_free[kUnitIdx] = std::max(es.unit_free[kUnitIdx], busy_until);
    if constexpr (kUnit == ExecUnit::kVMem) es.vmem_last_indexed = op_indexed_vmem(OP);
  }
  const u64 busy = busy_until - t_start;
  if constexpr (kUnit == ExecUnit::kVMem) {
    es.stats.vmem_busy_cycles += busy;
  } else if constexpr (kUnit == ExecUnit::kVAlu) {
    es.stats.valu_busy_cycles += busy;
  } else {
    es.stats.stm_busy_cycles += busy;
  }

  for (u32 i = 0; i < dec.num_dsts; ++i) {
    const u8 r = dec.dsts[i];
    es.vreg_first[r] = first_out;
    es.vreg_last[r] = last_out;
    es.vreg_readers_done[r] = last_out;
  }
  for (u32 i = 0; i < dec.num_srcs; ++i) {
    const u8 r = dec.srcs[i];
    es.vreg_readers_done[r] = std::max(es.vreg_readers_done[r], last_out);
  }

  // Scalar side effects of vector instructions.
  if constexpr (OP == Op::kVLdb || OP == Op::kVStb) {
    retire_scalar(es, is, inst.c, t_issue + es.scalar_op_latency);
    retire_scalar(es, is, inst.d, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kVStbv) {
    retire_scalar(es, is, inst.b, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kVRedSum || OP == Op::kVFRedSum || OP == Op::kVExtract) {
    retire_scalar(es, is, inst.a, last_out + 1);
  }
  is.bump_watermark(last_out);
  if (es.trace_sink != nullptr || es.profiler != nullptr) [[unlikely]] {
    report(es, {.pc = is.pc, .op = OP, .wait = stall_why, .vl = es.vl, .issue = t_issue,
                .start = t_start, .first = first_out, .last = last_out,
                .unblocked = unblocked, .watermark_before = w_before,
                .watermark_after = is.watermark, .occupancy = busy});
  }
  ++is.pc;
}

// Full execution of one scalar instruction: hazards, issue slot, memory
// port, functional body, retirement, record. `is` is where the issue
// state lives: ExecState::issue when an instruction is its own dispatch
// (exec_scalar), a local copy inside a scalar run (exec_scalar_run). The
// caller has checked the budget and counted the instruction. A run on a
// machine with no profiler, trace sink or enable_trace allowance passes
// kObserved = false: the observer checks compile away, and with them the
// stall bookkeeping only the observers read.
template <Op OP, bool kObserved>
SMTU_ALWAYS_INLINE void scalar_body(ExecState& es, IssueState& is, const Instruction& inst,
                                    const DecodedInst& dec) {
  const Cycle w_before = is.watermark;
  Cycle ready = is.pc_redirect;
  StallReason stall_why = StallReason::kScalarFetch;
  for (u32 i = 0; i < dec.num_sregs; ++i) {
    const Cycle r = es.sreg_ready[dec.sregs[i]];
    if (r > ready) {
      ready = r;
      stall_why = StallReason::kRawHazard;
    }
  }

  const Cycle unblocked = std::max(is.pc_redirect, is.last_issue + 1);
  Cycle t_issue = take_issue_slot(is, std::max(ready, is.last_issue));
  if (t_issue > ready) stall_why = StallReason::kIssueLimit;
  if constexpr (op_scalar_mem(OP)) {
    const Cycle slot = take_scalar_mem_slot(is, t_issue);
    if (slot > t_issue) {
      t_issue = slot;
      stall_why = StallReason::kMemPort;
    }
  }
  is.last_issue = t_issue;
  is.bump_watermark(t_issue);

  usize next_pc = is.pc + 1;
  if constexpr (OP == Op::kLi) {
    es.set_sreg(inst.a, static_cast<u64>(inst.imm));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kMv) {
    es.set_sreg(inst.a, es.sreg(inst.b));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kAdd) {
    es.set_sreg(inst.a, es.sreg(inst.b) + es.sreg(inst.c));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kSub) {
    es.set_sreg(inst.a, es.sreg(inst.b) - es.sreg(inst.c));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kMul) {
    es.set_sreg(inst.a, es.sreg(inst.b) * es.sreg(inst.c));
    retire_scalar(es, is, inst.a, t_issue + es.mul_latency);
  } else if constexpr (OP == Op::kAnd) {
    es.set_sreg(inst.a, es.sreg(inst.b) & es.sreg(inst.c));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kOr) {
    es.set_sreg(inst.a, es.sreg(inst.b) | es.sreg(inst.c));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kXor) {
    es.set_sreg(inst.a, es.sreg(inst.b) ^ es.sreg(inst.c));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kSll) {
    es.set_sreg(inst.a, es.sreg(inst.b) << (es.sreg(inst.c) & 63));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kSrl) {
    es.set_sreg(inst.a, es.sreg(inst.b) >> (es.sreg(inst.c) & 63));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kMin) {
    es.set_sreg(inst.a, std::min(es.sreg(inst.b), es.sreg(inst.c)));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kMax) {
    es.set_sreg(inst.a, std::max(es.sreg(inst.b), es.sreg(inst.c)));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kFAdd) {
    es.set_sreg(inst.a,
                std::bit_cast<u32>(std::bit_cast<float>(static_cast<u32>(es.sreg(inst.b))) +
                                   std::bit_cast<float>(static_cast<u32>(es.sreg(inst.c)))));
    retire_scalar(es, is, inst.a, t_issue + es.mul_latency);
  } else if constexpr (OP == Op::kFMul) {
    es.set_sreg(inst.a,
                std::bit_cast<u32>(std::bit_cast<float>(static_cast<u32>(es.sreg(inst.b))) *
                                   std::bit_cast<float>(static_cast<u32>(es.sreg(inst.c)))));
    retire_scalar(es, is, inst.a, t_issue + es.mul_latency);
  } else if constexpr (OP == Op::kAddi) {
    es.set_sreg(inst.a, es.sreg(inst.b) + static_cast<u64>(inst.imm));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kMuli) {
    es.set_sreg(inst.a, es.sreg(inst.b) * static_cast<u64>(inst.imm));
    retire_scalar(es, is, inst.a, t_issue + es.mul_latency);
  } else if constexpr (OP == Op::kAndi) {
    es.set_sreg(inst.a, es.sreg(inst.b) & static_cast<u64>(inst.imm));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kSlli) {
    es.set_sreg(inst.a, es.sreg(inst.b) << (inst.imm & 63));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kSrli) {
    es.set_sreg(inst.a, es.sreg(inst.b) >> (inst.imm & 63));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kLw) {
    es.set_sreg(inst.a, es.memory->read_u32(es.sreg(inst.b) + static_cast<u64>(inst.imm)));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_load_latency);
  } else if constexpr (OP == Op::kLhu) {
    es.set_sreg(inst.a, es.memory->read_u16(es.sreg(inst.b) + static_cast<u64>(inst.imm)));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_load_latency);
  } else if constexpr (OP == Op::kLbu) {
    es.set_sreg(inst.a, es.memory->read_u8(es.sreg(inst.b) + static_cast<u64>(inst.imm)));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_load_latency);
  } else if constexpr (OP == Op::kSw) {
    es.memory->write_u32(es.sreg(inst.b) + static_cast<u64>(inst.imm),
                         static_cast<u32>(es.sreg(inst.a)));
  } else if constexpr (OP == Op::kSh) {
    es.memory->write_u16(es.sreg(inst.b) + static_cast<u64>(inst.imm),
                         static_cast<u16>(es.sreg(inst.a)));
  } else if constexpr (OP == Op::kSb) {
    es.memory->write_u8(es.sreg(inst.b) + static_cast<u64>(inst.imm),
                        static_cast<u8>(es.sreg(inst.a)));
  } else if constexpr (OP == Op::kAmoAdd) {
    // Atomic fetch-and-add: atomicity comes for free because the system
    // interleaves whole instructions (step mode never runs a scalar run);
    // the memory round trip costs a scalar load latency.
    const Addr addr = es.sreg(inst.b) + static_cast<u64>(inst.imm);
    const u32 old = es.memory->read_u32(addr);
    es.memory->write_u32(addr, old + static_cast<u32>(es.sreg(inst.c)));
    es.set_sreg(inst.a, old);
    retire_scalar(es, is, inst.a, t_issue + es.scalar_load_latency);
  } else if constexpr (OP == Op::kBeq || OP == Op::kBne || OP == Op::kBlt || OP == Op::kBge) {
    const i64 lhs = static_cast<i64>(es.sreg(inst.a));
    const i64 rhs = static_cast<i64>(es.sreg(inst.b));
    bool taken = false;
    if constexpr (OP == Op::kBeq) taken = lhs == rhs;
    else if constexpr (OP == Op::kBne) taken = lhs != rhs;
    else if constexpr (OP == Op::kBlt) taken = lhs < rhs;
    else taken = lhs >= rhs;
    if (taken) {
      next_pc = static_cast<usize>(inst.imm);
      is.pc_redirect = t_issue + 1 + es.branch_penalty;
    }
  } else if constexpr (OP == Op::kJal) {
    es.set_sreg(inst.a, static_cast<u64>(is.pc + 1));
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
    next_pc = static_cast<usize>(inst.imm);
    is.pc_redirect = t_issue + 1 + es.branch_penalty;
  } else if constexpr (OP == Op::kJr) {
    next_pc = static_cast<usize>(es.sreg(inst.a));
    is.pc_redirect = t_issue + 1 + es.branch_penalty;
  } else if constexpr (OP == Op::kSsvl) {
    const u64 remaining = es.sreg(inst.a);
    es.vl = static_cast<u32>(std::min<u64>(es.section, remaining));
    es.set_sreg(inst.a, remaining - es.vl);
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
    es.vl_ready = std::max(es.vl_ready, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kSetvl) {
    es.vl = static_cast<u32>(std::min<u64>(es.section, es.sreg(inst.b)));
    es.set_sreg(inst.a, es.vl);
    retire_scalar(es, is, inst.a, t_issue + es.scalar_op_latency);
    es.vl_ready = std::max(es.vl_ready, t_issue + es.scalar_op_latency);
  } else if constexpr (OP == Op::kBarrier) {
    // Rendezvous: this core is done when everything it issued completes
    // (the watermark). Its record is reported by release_barrier(), where
    // the wait's true extent is known.
    es.status = StepStatus::kAtBarrier;
    es.barrier_arrival = is.watermark;
    if (es.trace_sink != nullptr || es.profiler != nullptr) {
      es.barrier_record = {.pc = is.pc, .op = OP, .wait = stall_why, .issue = t_issue,
                           .start = t_issue, .unblocked = unblocked,
                           .watermark_before = w_before, .occupancy = 1};
    }
    is.pc = next_pc;
    return;
  } else if constexpr (OP == Op::kHalt) {
    es.status = StepStatus::kHalted;
  } else if constexpr (OP == Op::kNop) {
    // nothing
  } else {
    static_assert(always_false_op<OP>, "unhandled scalar op in execute");
  }
  if (kObserved && (es.trace_sink != nullptr || es.profiler != nullptr)) [[unlikely]] {
    const Cycle done = std::max(t_issue, inst.a != kRegZero ? es.sreg_ready[inst.a] : t_issue);
    report(es, {.pc = is.pc, .op = OP, .wait = stall_why, .issue = t_issue, .start = t_issue,
                .first = done, .last = done, .unblocked = unblocked,
                .watermark_before = w_before, .watermark_after = is.watermark,
                .occupancy = 1});
  }
  is.pc = next_pc;
}

// One scalar instruction as its own dispatch: the handler step() always
// uses, and run() outside scalar runs.
template <Op OP>
void exec_scalar(ExecState& es, const Instruction& inst, const DecodedInst& dec) {
  step_prologue(es, inst);
  ++es.stats.scalar_instructions;
  scalar_body<OP, true>(es, es.issue, inst, dec);
}

// The opcodes a scalar run may hold, one case each in exec_scalar_run's
// switch; the static_assert keeps the list equal to op_in_scalar_run.
#define SMTU_SCALAR_RUN_OPS(X)                                                          \
  X(kLi) X(kMv) X(kAdd) X(kSub) X(kMul) X(kAnd) X(kOr) X(kXor) X(kSll) X(kSrl) X(kMin) \
  X(kMax) X(kAddi) X(kMuli) X(kAndi) X(kSlli) X(kSrli) X(kFAdd) X(kFMul) X(kLw) X(kSw) \
  X(kLhu) X(kSh) X(kLbu) X(kSb) X(kAmoAdd) X(kBeq) X(kBne) X(kBlt) X(kBge) X(kJal)     \
  X(kJr) X(kNop) X(kSsvl) X(kSetvl)

constexpr bool all_scalar_run_ops_listed() {
#define SMTU_RUN_OP_ENTRY(NAME) Op::NAME,
  constexpr Op kListed[] = {SMTU_SCALAR_RUN_OPS(SMTU_RUN_OP_ENTRY)};
#undef SMTU_RUN_OP_ENTRY
  usize in_runs = 0;
  for (usize i = 0; i < kOpCount; ++i) {
    if (op_in_scalar_run(static_cast<Op>(i))) ++in_runs;
  }
  // The switch rejects a duplicate, so equal counts mean equal sets.
  return std::size(kListed) == in_runs && std::ranges::all_of(kListed, op_in_scalar_run);
}
static_assert(all_scalar_run_ops_listed());

// Executes the straight-line scalar run at the pc (DecodedInst::run_len
// instructions, the last possibly a branch) as one dispatch. The issue
// state sits in a local for the run and is written back once, and the
// instruction counters move once; each instruction runs its handler's body
// and, when kObserved, reports the same record. The caller has checked
// that the whole run fits the instruction budget.
template <bool kObserved>
void exec_scalar_run(ExecState& es, u32 len) {
  IssueState is = es.issue;
  const Instruction* const insts = es.insts;
  const DecodedInst* const decoded = es.decoded;
  for (u32 n = 0; n < len; ++n) {
    const Instruction& inst = insts[is.pc];
    const DecodedInst& dec = decoded[is.pc];
    if constexpr (kObserved) trace_line(es, is.pc, inst);
    switch (inst.op) {
#define SMTU_RUN_CASE(NAME)                              \
  case Op::NAME:                                         \
    scalar_body<Op::NAME, kObserved>(es, is, inst, dec); \
    break;
      SMTU_SCALAR_RUN_OPS(SMTU_RUN_CASE)
#undef SMTU_RUN_CASE
      default:
        SMTU_CHECK_MSG(false, "opcode cannot be in a scalar run");
    }
  }
  es.issue = is;
  es.stats.instructions += len;
  es.stats.scalar_instructions += len;
}

template <Op OP>
void op_entry(ExecState& es, const Instruction& inst, const DecodedInst& dec) {
  if constexpr (op_is_vector(OP)) {
    exec_vector<OP>(es, inst, dec);
  } else {
    exec_scalar<OP>(es, inst, dec);
  }
}

template <usize... Is>
constexpr std::array<OpHandler, kOpCount> make_handler_table(std::index_sequence<Is...>) {
  return {&op_entry<static_cast<Op>(Is)>...};
}

constexpr std::array<OpHandler, kOpCount> kHandlerTable =
    make_handler_table(std::make_index_sequence<kOpCount>{});

}  // namespace

OpHandler opcode_handler(Op op) {
  const usize index = static_cast<usize>(op);
  SMTU_CHECK_MSG(index < kOpCount, "opcode out of range");
  return kHandlerTable[index];
}

Machine::Machine(const MachineConfig& config) : config_(config) {
  check_config(config_);
  owned_memory_ = std::make_unique<Memory>(config_.memory_limit);
  owned_stm_ = std::make_unique<StmUnit>(stm_config_for(config_));
  es_.memory = owned_memory_.get();
  es_.stm = owned_stm_.get();
  init_exec_state();
}

Machine::Machine(const MachineConfig& config, const CoreContext& context) : config_(config) {
  check_config(config_);
  SMTU_CHECK_MSG(context.memory != nullptr, "CoreContext requires a memory");
  es_.memory = context.memory;
  es_.memory_system = context.memory_system;
  owned_stm_ = std::make_unique<StmUnit>(stm_config_for(config_));
  es_.stm = owned_stm_.get();
  init_exec_state();
}

void Machine::init_exec_state() {
  es_.section = config_.section;
  es_.vreg_data.assign(static_cast<usize>(kNumVectorRegs) * config_.section, 0);
  es_.lanes = config_.lanes;
  es_.mem_bytes_per_cycle = config_.mem_bytes_per_cycle;
  es_.mem_indexed_elems_per_cycle = config_.mem_indexed_elems_per_cycle;
  es_.scalar_op_latency = config_.scalar_op_latency;
  es_.scalar_load_latency = config_.scalar_load_latency;
  es_.mul_latency = config_.mul_latency;
  es_.branch_penalty = config_.branch_penalty;
  es_.chaining = config_.chaining;
  es_.mem_pipelined_startup = config_.mem_pipelined_startup;
  es_.stm_double = config_.stm.double_buffer;
  es_.max_instructions = config_.max_instructions;
}

std::span<const u32> Machine::vreg(u32 index) const {
  SMTU_CHECK(index < kNumVectorRegs);
  return {es_.vreg_row(index), es_.section};
}

void Machine::begin_run(const Program& program, usize entry_pc) {
  SMTU_CHECK_MSG(entry_pc < program.size(), "entry pc out of range");

  // Every Program comes from assemble(), which predecodes it.
  SMTU_CHECK_MSG(program.decoded.size() == program.instructions.size(),
                 "program is not predecoded");
  es_.insts = program.instructions.data();
  es_.decoded = program.decoded.data();
  es_.program_size = program.size();
  // Startup latencies by StartupKind, resolved from the config once per run
  // (indexed by the predecoded kind instead of re-deriving per dynamic
  // instruction).
  es_.startup_by_kind = {config_.mem_startup, config_.valu_startup,
                         config_.stm.fill_pipeline_cycles,
                         config_.stm.drain_pipeline_cycles, 0};

  // Reset timing and statistics; architectural state persists.
  es_.sreg_ready.fill(0);
  es_.vreg_first.fill(0);
  es_.vreg_last.fill(0);
  es_.vreg_readers_done.fill(0);
  es_.unit_free.fill(0);
  es_.vl_ready = 0;
  es_.issue = {.pc = entry_pc,
               .issue_width = config_.scalar_issue_width,
               .scalar_mem_ports = config_.scalar_mem_ports};
  es_.stm_fill_done[0] = 0;
  es_.stm_fill_done[1] = 0;
  es_.stm_drain_done[0] = 0;
  es_.stm_drain_done[1] = 0;
  es_.stm_drain_free = 0;
  es_.vmem_last_indexed = false;
  es_.stats = {};
  stm_before_ = es_.stm->stats();
  es_.status = StepStatus::kRunning;
  if (es_.profiler != nullptr) es_.profiler->begin_run(program);
}

StepStatus Machine::step() {
  SMTU_CHECK_MSG(es_.status == StepStatus::kRunning,
                 "step() on a core that is halted or waiting at a barrier");
  SMTU_CHECK_MSG(es_.issue.pc < es_.program_size,
                 "pc ran off the end of the program (missing halt?)");
  const DecodedInst& dec = es_.decoded[es_.issue.pc];
  dec.handler(es_, es_.insts[es_.issue.pc], dec);
  return es_.status;
}

void Machine::release_barrier(Cycle release) {
  SMTU_CHECK_MSG(es_.status == StepStatus::kAtBarrier,
                 "release_barrier() on a core not waiting at a barrier");
  SMTU_CHECK(release >= es_.barrier_arrival);
  // The front end resumes at the release; everything after the barrier is
  // ordered behind it.
  es_.issue.pc_redirect = std::max(es_.issue.pc_redirect, release);
  es_.issue.bump_watermark(release);
  if (es_.trace_sink != nullptr || es_.profiler != nullptr) {
    // The barrier completes at the release. Cycles spent past the core's
    // own arrival are the barrier's fault; anything before that keeps the
    // reason the issue path found.
    InstRecord& record = es_.barrier_record;
    record.first = release;
    record.last = release;
    record.watermark_after = es_.issue.watermark;
    if (release > es_.barrier_arrival) record.wait = StallReason::kBarrierWait;
    report(es_, record);
  }
  es_.status = StepStatus::kRunning;
}

RunStats Machine::finish_run() {
  SMTU_CHECK_MSG(es_.status == StepStatus::kHalted, "finish_run() before halt");
  es_.stats.cycles = es_.issue.watermark;
  const StmUnit::Stats& stm_stats = es_.stm->stats();
  es_.stats.stm_blocks = stm_stats.blocks - stm_before_.blocks;
  es_.stats.stm_write_cycles = stm_stats.write_cycles - stm_before_.write_cycles;
  es_.stats.stm_read_cycles = stm_stats.read_cycles - stm_before_.read_cycles;
  if (es_.profiler != nullptr) es_.profiler->end_run(es_.stats.cycles);
  return es_.stats;
}

RunStats Machine::run(const Program& program, usize entry_pc) {
  begin_run(program, entry_pc);
  // The hot loop: a straight-line scalar run as one dispatch, anything
  // else an indirect call through the pre-bound handler, no
  // per-instruction status branching beyond the exit check.
  ExecState& es = es_;
  // Observers stay attached for the whole run and the enable_trace
  // allowance only shrinks, so one test picks the runs' variant.
  const bool observed =
      es.profiler != nullptr || es.trace_sink != nullptr || es.trace_remaining > 0;
  while (true) {
    SMTU_CHECK_MSG(es.issue.pc < es.program_size,
                   "pc ran off the end of the program (missing halt?)");
    const DecodedInst& dec = es.decoded[es.issue.pc];
    // A run that would cross the budget goes instruction by instruction,
    // so the budget abort fires at the same instruction.
    if (dec.run_len >= 2 && es.max_instructions - es.stats.instructions >= dec.run_len) {
      if (observed) {
        exec_scalar_run<true>(es, dec.run_len);
      } else {
        exec_scalar_run<false>(es, dec.run_len);
      }
      continue;
    }
    dec.handler(es, es.insts[es.issue.pc], dec);
    if (es.status != StepStatus::kRunning) [[unlikely]] {
      if (es.status == StepStatus::kHalted) break;
      // A lone core's barrier releases the moment it arrives.
      release_barrier(es.barrier_arrival);
    }
  }
  return finish_run();
}

std::string run_stats_summary(const RunStats& stats) {
  const double cycles = static_cast<double>(std::max<Cycle>(1, stats.cycles));
  std::string out;
  out += format("cycles:        %llu\n", static_cast<unsigned long long>(stats.cycles));
  out += format("instructions:  %llu (%llu scalar, %llu vector; %.2f instr/cycle)\n",
                static_cast<unsigned long long>(stats.instructions),
                static_cast<unsigned long long>(stats.scalar_instructions),
                static_cast<unsigned long long>(stats.vector_instructions),
                static_cast<double>(stats.instructions) / cycles);
  out += format("vector elems:  %llu (avg vl %.1f)\n",
                static_cast<unsigned long long>(stats.vector_elements),
                stats.vector_instructions == 0
                    ? 0.0
                    : static_cast<double>(stats.vector_elements) /
                          static_cast<double>(stats.vector_instructions));
  out += format("memory:        %llu streamed bytes, %llu indexed elements\n",
                static_cast<unsigned long long>(stats.mem_contiguous_bytes),
                static_cast<unsigned long long>(stats.mem_indexed_elements));
  out += format("unit busy:     vmem %.1f%%, valu %.1f%%, stm %.1f%%\n",
                100.0 * static_cast<double>(stats.vmem_busy_cycles) / cycles,
                100.0 * static_cast<double>(stats.valu_busy_cycles) / cycles,
                100.0 * static_cast<double>(stats.stm_busy_cycles) / cycles);
  if (stats.stm_blocks > 0) {
    out += format("stm:           %llu block passes, %llu fill + %llu drain cycles, "
                  "%llu elements\n",
                  static_cast<unsigned long long>(stats.stm_blocks),
                  static_cast<unsigned long long>(stats.stm_write_cycles),
                  static_cast<unsigned long long>(stats.stm_read_cycles),
                  static_cast<unsigned long long>(stats.stm_elements));
  }
  return out;
}

}  // namespace smtu::vsim
