// Cycle-attribution profiler: hardware-counter-style performance counters
// for the simulated machine (the full reference is docs/PROFILING.md).
//
// The machine is an analytic resource-time model: run() advances a single
// completion watermark as each instruction's finish time is resolved. A
// PerfCounters attached to the Machine receives one InstRecord per
// executed instruction, bracketing the watermark before and after it. The
// watermark increment is split into a *wait* part — the larger of the dead
// gap past the old watermark (fetch bubbles) and the delay the binding
// hazard/resource constraint imposed past the unconstrained issue point,
// clamped to the increment; attributed to the stall taxonomy below — and a
// *busy* part (the remainder, attributed to the functional unit doing the
// work). Increments telescope to the final cycle count, so
//
//     Σ stall buckets + Σ busy buckets == total cycles
//
// holds exactly; end_run() enforces it (SMTU_CHECK). Counters also roll up
// per opcode, per functional unit, per assembly source line, and per
// `;; profile: <name>` region (assembler directive, see docs/PROFILING.md).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "vsim/program.hpp"

namespace smtu::vsim {

// Why an instruction's start was delayed past the completion watermark —
// i.e. which constraint the critical path ran through for those cycles.
// Exactly one reason is charged per instruction (the argmax constraint).
enum class StallReason : u8 {
  kRawHazard = 0,     // a scalar/vector source operand was not yet ready
  kVregBusy,          // destination vector register still being read/written
  kChainingWait,      // waiting on a producer's first element (chained)
  kMemPort,           // memory port busy (contiguous/stream occupant, or
                      // scalar load/store port contention)
  kMemIndexedSerial,  // memory port serialized behind a 1-elem/cycle
                      // indexed (gather/scatter/strided) access
  kStmBusy,           // s x s memory unit busy (fill/drain/bank ordering)
  kValuBusy,          // vector ALU busy with an earlier instruction
  kScalarFetch,       // scalar front end refilling after a taken branch
  kIssueLimit,        // in-order issue / scalar issue-width limit
  kMemBankContention, // a shared memory bank was held by another core
                      // (multi-core systems only; see docs/MULTICORE.md)
  kBarrierWait,       // waiting at a `barrier` for the slowest core
  kCount
};
inline constexpr usize kStallReasonCount = static_cast<usize>(StallReason::kCount);

// Stable snake_case name used in JSON keys and reports, e.g. "raw_hazard".
const char* stall_reason_name(StallReason reason);

// Which resource the busy part of an instruction's watermark increment ran
// on. The vector memory pipe is split by access kind because the paper's
// entire argument rests on the stream-vs-indexed rate gap (§IV-A).
enum class BusyKind : u8 {
  kScalar = 0,    // scalar core (issue slots + op/load latency)
  kVMemStream,    // vector memory pipe, contiguous/streaming rate
  kVMemIndexed,   // vector memory pipe, 1 element/cycle indexed accesses
  kVAlu,          // vector ALU
  kStm,           // the STM (s x s memory) unit
  kCount
};
inline constexpr usize kBusyKindCount = static_cast<usize>(BusyKind::kCount);

// Stable snake_case name used in JSON keys and reports, e.g. "vmem_indexed".
const char* busy_kind_name(BusyKind kind);

// The bucket an opcode's busy cycles go to: its unit in the opcode table,
// with the vector memory pipe split by access kind.
constexpr BusyKind busy_kind_of(Op op) {
  switch (op_unit(op)) {
    case ExecUnit::kVMem:
      return op_indexed_vmem(op) ? BusyKind::kVMemIndexed : BusyKind::kVMemStream;
    case ExecUnit::kVAlu: return BusyKind::kVAlu;
    case ExecUnit::kStm: return BusyKind::kStm;
    case ExecUnit::kScalar: break;
  }
  return BusyKind::kScalar;
}

// One executed instruction, as the Machine reports it: built once per
// instruction and handed to whichever of an ExecutionTrace (vsim/trace.hpp)
// and a PerfCounters are attached. The instruction's unit is op_unit(op).
struct InstRecord {
  usize pc = 0;
  Op op = Op::kNop;
  StallReason wait = StallReason::kIssueLimit; // binding start constraint
  u32 vl = 0;                                  // 0 for scalar instructions
  Cycle issue = 0;          // in-order scalar issue slot
  Cycle start = 0;          // unit start (== issue for scalar ops)
  Cycle first = 0;          // first result available
  Cycle last = 0;           // last result available / completion
  Cycle unblocked = 0;      // start absent hazard/resource constraints
  Cycle watermark_before = 0;
  Cycle watermark_after = 0;
  Cycle occupancy = 0;      // cycles the unit was reserved (1 for scalar)
};

class PerfCounters {
 public:
  struct OpCounters {
    u64 issued = 0;
    u64 retired = 0;
    u64 elements = 0;     // vector elements processed
    u64 busy_cycles = 0;  // attributed busy cycles
    u64 stall_cycles = 0; // attributed wait cycles
  };

  struct FuCounters {
    u64 instructions = 0;
    u64 occupancy_cycles = 0;  // reservation time, overlap included
  };

  struct LineCounters {
    u32 line = 0;         // 1-based assembler source line
    std::string text;     // the source line, as written
    std::string region;   // enclosing `;; profile:` region ("" if none)
    u64 issued = 0;
    u64 busy_cycles = 0;
    u64 stall_cycles = 0;
    std::array<u64, kStallReasonCount> stalls{};  // wait cycles per reason
  };

  struct RegionCounters {
    std::string name;
    u64 issued = 0;
    u64 busy_cycles = 0;
    u64 stall_cycles = 0;
  };

  // Drops all counters and the captured program tables.
  void reset();

  // ---- Machine hooks ------------------------------------------------------
  // begin_run() captures the program's line/region tables (first call) or
  // checks the same program is being re-run (accumulation across runs).
  void begin_run(const Program& program);
  void record(const InstRecord& record);
  // Folds the run's cycle count into the totals and enforces the
  // conservation invariant: attributed_cycles() == total_cycles().
  void end_run(Cycle run_cycles);

  // ---- Results ------------------------------------------------------------
  u64 runs() const { return runs_; }
  Cycle total_cycles() const { return total_cycles_; }
  u64 attributed_cycles() const { return attributed_cycles_; }
  const std::array<u64, kStallReasonCount>& stall_cycles() const { return stall_cycles_; }
  const std::array<u64, kBusyKindCount>& busy_cycles() const { return busy_cycles_; }
  const std::array<OpCounters, kOpCount>& ops() const { return ops_; }
  const std::array<FuCounters, kBusyKindCount>& fus() const { return fus_; }

  // Per-line / per-region rollups of the per-pc counters, ordered by source
  // line / first static appearance. Lines that never issued are omitted.
  std::vector<LineCounters> line_rollup() const;
  std::vector<RegionCounters> region_rollup() const;

 private:
  struct PcCounters {
    u64 issued = 0;
    u64 busy_cycles = 0;
    u64 stall_cycles = 0;
    std::array<u64, kStallReasonCount> stalls{};
  };

  u64 runs_ = 0;
  Cycle total_cycles_ = 0;
  u64 attributed_cycles_ = 0;
  std::array<u64, kStallReasonCount> stall_cycles_{};
  std::array<u64, kBusyKindCount> busy_cycles_{};
  std::array<OpCounters, kOpCount> ops_{};
  std::array<FuCounters, kBusyKindCount> fus_{};

  // Program tables captured at begin_run (the profiler outlives the
  // Program in the bench harness, so it owns copies).
  std::vector<PcCounters> per_pc_;
  std::vector<u32> pc_line_;
  std::vector<i32> pc_region_;  // index into region_names_, -1 = none
  std::vector<std::string> region_names_;
  std::vector<std::string> line_text_;  // 1-based, [0] unused
};

// Human-readable report: stall-bucket breakdown, FU occupancy, hottest
// opcodes, and the top `top_lines` source lines by attributed cycles.
std::string profile_summary(const PerfCounters& profile, usize top_lines = 10);

}  // namespace smtu::vsim
