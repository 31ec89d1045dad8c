// The simulated vector processor.
//
// Execution is functional (architecturally exact, instruction by
// instruction); cycle counts come from a resource-time model layered on top,
// the standard way to model Cray-style register-vector machines:
//
//  * The scalar core issues in order, up to `scalar_issue_width` per cycle,
//    waiting until source operands are ready (scoreboarded in-order pipe)
//    and paying `branch_penalty` on taken control flow.
//  * Each vector instruction occupies one functional unit (vector memory
//    pipe, vector ALU, or the STM) from its start until its last result.
//    A unit delivers its first element `startup` cycles after start and then
//    streams at the unit's rate.
//  * With chaining enabled, a dependent vector instruction may start as soon
//    as its producers deliver their first element; its completion is bounded
//    below by the producers' completion (it cannot outrun its inputs).
//    Without chaining it waits for producers to complete.
//  * Hazards on vector registers are respected: write-after-read waits for
//    the last reader, write-after-write for the previous writer.
//
// The STM instructions' durations are not closed-form: the machine feeds the
// actual element stream through the cycle-accurate stm::StmUnit, so buffer
// bandwidth B, accessible lines L, and the block's sparsity pattern all
// shape the timing exactly as in §IV-C of the paper.
//
// A Machine is either *owning* (the classic single-core setup: it owns its
// Memory and StmUnit) or a *core* inside a MultiCoreSystem, borrowing the
// shared MemorySystem plus a per-core StmUnit through a CoreContext (see
// system.hpp and docs/MULTICORE.md). Both run the identical timing model;
// the only multi-core additions are bank-contention pushback on vector
// memory accesses and the `barrier` rendezvous.
//
// Dispatch is threaded-code style (HACKING.md "Interpreter internals"):
// every predecoded instruction carries a per-opcode handler pointer bound
// at assembly time, and all hot interpreter state lives in one SoA
// ExecState the handlers receive directly. run() also executes each
// straight-line scalar run (DecodedInst::run_len) as one dispatch that
// keeps the scalar issue state in locals; step mode stays one instruction
// per step. Golden digests of every kernel class pin the model's output
// (tests/test_interpreter_golden.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "stm/unit.hpp"
#include "support/assert.hpp"
#include "vsim/config.hpp"
#include "vsim/memory.hpp"
#include "vsim/memory_system.hpp"
#include "vsim/profiler.hpp"
#include "vsim/program.hpp"
#include "vsim/trace.hpp"

namespace smtu::vsim {

struct RunStats {
  Cycle cycles = 0;
  u64 instructions = 0;
  u64 scalar_instructions = 0;
  u64 vector_instructions = 0;
  u64 vector_elements = 0;       // elements processed by vector instructions
  u64 mem_contiguous_bytes = 0;  // vector memory traffic, streaming
  u64 mem_indexed_elements = 0;  // vector memory traffic, gather/scatter
  u64 stm_blocks = 0;
  u64 stm_write_cycles = 0;
  u64 stm_read_cycles = 0;
  u64 stm_elements = 0;
  // Per-unit occupancy (cycles each functional unit was reserved), for
  // bottleneck analysis: vector memory pipe, vector ALU, STM.
  u64 vmem_busy_cycles = 0;
  u64 valu_busy_cycles = 0;
  u64 stm_busy_cycles = 0;
};

// Human-readable multi-line digest (cycles, instruction mix, unit
// utilization percentages).
std::string run_stats_summary(const RunStats& stats);

// How a core may borrow its environment instead of owning it. Both
// pointers must outlive the Machine; `memory` is required. Each core always
// builds its own private STM (one s x s memory per core).
struct CoreContext {
  Memory* memory = nullptr;
  MemorySystem* memory_system = nullptr;  // bank timing; null = untimed
};

// Result of executing one instruction in step mode.
enum class StepStatus : u8 {
  kRunning,    // instruction executed, more to come
  kAtBarrier,  // stopped at a `barrier`; call release_barrier() to resume
  kHalted,     // executed `halt`
};

// The scalar core's issue state: the pc, the in-order issue clock and
// its width, the scalar memory ports, the fetch redirect after a taken
// branch, and the completion watermark. Every instruction reads and
// advances it. A handler (one instruction per dispatch) works on
// ExecState::issue in place; a scalar run copies it into a local for the
// run's length, so it stays in registers, and writes it back once.
struct IssueState {
  usize pc = 0;
  Cycle last_issue = 0;
  Cycle pc_redirect = 0;
  Cycle watermark = 0;
  Cycle issue_cycle = 0;
  u32 issue_used = 0;
  u32 issue_width = 1;  // MachineConfig::scalar_issue_width
  Cycle scalar_mem_cycle = 0;
  u32 scalar_mem_used = 0;
  u32 scalar_mem_ports = 1;  // MachineConfig::scalar_mem_ports

  void bump_watermark(Cycle cycle) { watermark = std::max(watermark, cycle); }
};

// Everything the interpreter's hot loop touches, gathered into one
// cache-friendly structure-of-arrays block that every opcode handler
// receives as its single context argument. Parallel arrays replace the
// old array-of-structs register timing; the vector register file is one
// contiguous kNumVectorRegs x section block. The Machine owns exactly one
// ExecState and exposes the architectural pieces through its accessors —
// treat this as the interpreter's internals, not public API.
struct ExecState {
  // ---- Architectural state (persists across runs) -------------------------
  std::array<u64, kNumScalarRegs> sregs{};
  u32 vl = 0;
  u32 section = 0;          // row stride of vreg_data
  std::vector<u32> vreg_data;  // kNumVectorRegs rows of `section` lanes

  // ---- Timing state (reset per run), SoA ----------------------------------
  std::array<Cycle, kNumScalarRegs> sreg_ready{};
  std::array<Cycle, kNumVectorRegs> vreg_first{};         // first element available
  std::array<Cycle, kNumVectorRegs> vreg_last{};          // last element available
  std::array<Cycle, kNumVectorRegs> vreg_readers_done{};  // latest consumer read
  std::array<Cycle, 3> unit_free{};                       // indexed by ExecUnit
  Cycle vl_ready = 0;
  IssueState issue;
  // STM phase ordering, tracked per bank: a bank's drain cannot start
  // before its fill completed, and icm cannot clear a bank whose drain is
  // still in flight. Single-buffer mode only uses index 0.
  Cycle stm_fill_done[2] = {0, 0};
  Cycle stm_drain_done[2] = {0, 0};
  Cycle stm_drain_free = 0;
  // Whether the vector memory pipe's current occupant is an indexed
  // (1 element/cycle) access — distinguishes "waiting behind a slow
  // gather/scatter" from plain port contention in the stall taxonomy.
  bool vmem_last_indexed = false;

  // ---- Current run (valid between begin_run and finish_run) ---------------
  const Instruction* insts = nullptr;
  const DecodedInst* decoded = nullptr;
  usize program_size = 0;
  StepStatus status = StepStatus::kHalted;
  RunStats stats;
  // Startup latencies by StartupKind, resolved from the config once per run.
  std::array<u32, kStartupKindCount> startup_by_kind{};

  // Pending barrier (valid while status == kAtBarrier): the cycle this core
  // arrived, and the barrier's record, which release_barrier() completes
  // and reports once the wait's true extent is known.
  Cycle barrier_arrival = 0;
  InstRecord barrier_record;

  // ---- Environment (borrowed; the Machine manages ownership) --------------
  Memory* memory = nullptr;
  StmUnit* stm = nullptr;
  MemorySystem* memory_system = nullptr;
  PerfCounters* profiler = nullptr;
  ExecutionTrace* trace_sink = nullptr;
  u64 trace_remaining = 0;

  // ---- Config scalars (copied from MachineConfig at construction) ---------
  u32 lanes = 1;
  u32 mem_bytes_per_cycle = 1;
  u32 mem_indexed_elems_per_cycle = 1;
  u32 scalar_op_latency = 1;
  u32 scalar_load_latency = 1;
  u32 mul_latency = 1;
  u32 branch_penalty = 0;
  bool chaining = true;
  bool mem_pipelined_startup = true;
  bool stm_double = false;
  u64 max_instructions = 0;

  // Reused per-instruction buffers for vector slides and STM batches, so
  // the interpreter's hot loop performs no heap allocation after warm-up.
  // (An ExecState is single-threaded state; run one Machine per thread.)
  std::vector<u32> slide_scratch;
  std::vector<StmEntry> stm_batch_scratch;

  u32* vreg_row(u32 index) {
    return vreg_data.data() + static_cast<usize>(index) * section;
  }
  const u32* vreg_row(u32 index) const {
    return vreg_data.data() + static_cast<usize>(index) * section;
  }
  // Register access by the handlers. Unchecked: decode_instructions()
  // validates every register number a program names; the host accessors
  // Machine::sreg/set_sreg check theirs. r0 reads as zero because
  // set_sreg never writes it.
  u64 sreg(u32 index) const { return sregs[index]; }
  void set_sreg(u32 index, u64 value) {
    if (index != kRegZero) sregs[index] = value;
  }
};

class Machine {
 public:
  // Owning single-core machine (the classic setup).
  explicit Machine(const MachineConfig& config);
  // Core borrowing shared state; see CoreContext.
  Machine(const MachineConfig& config, const CoreContext& context);

  const MachineConfig& config() const { return config_; }
  Memory& memory() { return *es_.memory; }
  const Memory& memory() const { return *es_.memory; }

  u64 sreg(u32 index) const {
    SMTU_CHECK(index < kNumScalarRegs);
    return es_.sreg(index);
  }
  void set_sreg(u32 index, u64 value) {
    SMTU_CHECK(index < kNumScalarRegs);
    es_.set_sreg(index, value);
  }
  std::span<const u32> vreg(u32 index) const;
  u32 vl() const { return es_.vl; }

  // Prints executed instructions (at most `max_lines`) to stderr.
  void enable_trace(u64 max_lines) { es_.trace_remaining = max_lines; }

  // Keeps each executed instruction's InstRecord in `trace` during run()
  // (nullptr detaches). The trace is not cleared automatically.
  void attach_trace(ExecutionTrace* trace) { es_.trace_sink = trace; }

  // Attaches a cycle-attribution profiler (nullptr detaches). run() calls
  // begin_run()/record()/end_run() on it; counters accumulate across runs
  // of the same program until PerfCounters::reset().
  void attach_profiler(PerfCounters* profiler) { es_.profiler = profiler; }

  // Executes from `entry_pc` until halt; aborts on runaway programs.
  // Timing state and statistics are reset per run; memory and registers
  // persist so the host can stage inputs and read back outputs.
  // Equivalent to begin_run() + step() to completion + finish_run(), with
  // any `barrier` released immediately (a lone core never waits); it only
  // executes each straight-line scalar run in one dispatch.
  RunStats run(const Program& program, usize entry_pc = 0);

  // ---- Step-mode interface (MultiCoreSystem scheduling) -------------------
  // Resets timing state and statistics for a new run of `program`.
  void begin_run(const Program& program, usize entry_pc = 0);
  // Executes exactly one instruction of the current run.
  StepStatus step();
  StepStatus status() const { return es_.status; }
  // Closes out the run (stats, STM deltas, profiler end_run). Only valid
  // once step() returned kHalted.
  RunStats finish_run();

  // While kAtBarrier: the cycle this core arrived (all its issued work
  // complete). release_barrier(t) resumes it at cycle t >= arrival.
  Cycle barrier_arrival() const { return es_.barrier_arrival; }
  void release_barrier(Cycle release);

  // Earliest cycle the next instruction could issue — the system scheduler
  // steps the core with the smallest horizon to keep simulated time
  // coherent across cores sharing the banked memory.
  Cycle issue_horizon() const { return std::max(es_.issue.pc_redirect, es_.issue.last_issue); }

 private:
  void init_exec_state();

  MachineConfig config_;
  // Owning mode keeps its memory/STM here; core mode leaves these null.
  std::unique_ptr<Memory> owned_memory_;
  std::unique_ptr<StmUnit> owned_stm_;

  // Step-mode run state (valid between begin_run and finish_run).
  StmUnit::Stats stm_before_;

  ExecState es_;
};

}  // namespace smtu::vsim
