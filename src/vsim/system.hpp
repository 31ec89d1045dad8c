// Multi-core system model: N Machine cores sharing one banked MemorySystem,
// stepped in lockstep simulated time (see docs/MULTICORE.md).
//
// The system runs one program SPMD across all cores. Each core keeps its
// own scalar/vector register file, its own STM, and its own timing state;
// they share the flat byte-addressed memory and contend for its banks.
// Cores rendezvous at `barrier` instructions; the system releases a
// barrier at the maximum arrival watermark of the participating cores.
//
// Scheduling is deterministic: a single host thread steps the core with
// the smallest issue horizon (the earliest simulated cycle its next
// instruction could issue), breaking ties round-robin with a rotating
// starting core. Because bank arbitration only ever looks at request
// times that the horizon ordering has already fixed, repeated runs — and
// runs under any host-side parallelism (--jobs) — produce identical
// cycle counts.
//
// With cores == 1 the system degenerates to exactly the owning Machine:
// a lone core's bank requests never contend (its per-bank occupancy is
// bounded by its own access duration) and its barriers release at
// arrival, so cycle counts are bit-identical to Machine::run().
#pragma once

#include <memory>
#include <vector>

#include "vsim/machine.hpp"
#include "vsim/memory_system.hpp"

namespace smtu::vsim {

struct SystemConfig {
  MachineConfig core;        // applied identically to every core
  u32 cores = 1;
  MemorySystemConfig memory;
};

struct SystemRunStats {
  Cycle cycles = 0;                  // max over cores (wall-clock of the run)
  std::vector<RunStats> core_stats;  // per-core stats, indexed by core id
  u64 barriers = 0;                  // barrier rendezvous released
  MemorySystem::Stats memory;        // shared-memory bank contention
};

class MultiCoreSystem {
 public:
  explicit MultiCoreSystem(const SystemConfig& config);

  const SystemConfig& config() const { return config_; }
  u32 num_cores() const { return static_cast<u32>(cores_.size()); }
  // The shared memory, for host-side staging and read-back.
  Memory& memory() { return memsys_->memory(); }
  const Memory& memory() const { return memsys_->memory(); }
  // Core access, e.g. to set per-core entry registers before run().
  Machine& core(u32 index);

  // Attaches a per-core profiler (nullptr detaches). Each core needs its
  // own PerfCounters: samples interleave across cores, and the per-run
  // conservation invariant holds per core, not across them.
  void attach_profiler(u32 core, PerfCounters* profiler);
  // One fresh PerfCounters per core in `*profilers` (resized and cleared),
  // each attached to its core; nullptr attaches nothing.
  void attach_profilers(std::vector<PerfCounters>* profilers);

  // Runs `program` SPMD on all cores from `entry_pc` until every core
  // halts. Bank timing and contention statistics reset per run; memory
  // contents and core registers persist (stage inputs first).
  SystemRunStats run(const Program& program, usize entry_pc = 0);

 private:
  SystemConfig config_;
  std::unique_ptr<MemorySystem> memsys_;
  std::vector<std::unique_ptr<Machine>> cores_;
  u32 rr_start_ = 0;  // rotating round-robin tie-break origin
};

}  // namespace smtu::vsim
