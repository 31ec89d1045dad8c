#include "vsim/system.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace smtu::vsim {

MultiCoreSystem::MultiCoreSystem(const SystemConfig& config) : config_(config) {
  SMTU_CHECK_MSG(config_.cores >= 1, "a system needs at least one core");
  config_.memory.memory_limit = config_.core.memory_limit;
  memsys_ = std::make_unique<MemorySystem>(config_.memory);
  cores_.reserve(config_.cores);
  const CoreContext context{.memory = &memsys_->memory(), .memory_system = memsys_.get()};
  for (u32 i = 0; i < config_.cores; ++i) {
    cores_.push_back(std::make_unique<Machine>(config_.core, context));
  }
}

Machine& MultiCoreSystem::core(u32 index) {
  SMTU_CHECK(index < cores_.size());
  return *cores_[index];
}

void MultiCoreSystem::attach_profiler(u32 core, PerfCounters* profiler) {
  SMTU_CHECK(core < cores_.size());
  cores_[core]->attach_profiler(profiler);
}

void MultiCoreSystem::attach_profilers(std::vector<PerfCounters>* profilers) {
  if (profilers == nullptr) return;
  profilers->clear();
  profilers->resize(cores_.size());
  for (usize c = 0; c < cores_.size(); ++c) cores_[c]->attach_profiler(&(*profilers)[c]);
}

SystemRunStats MultiCoreSystem::run(const Program& program, usize entry_pc) {
  memsys_->reset_timing();
  for (auto& core : cores_) core->begin_run(program, entry_pc);

  SystemRunStats stats;
  const u32 n = num_cores();
  u32 running = n;

  // Releases the pending barrier once every non-halted core reached it.
  // Returns true if a release happened (cores resumed running).
  const auto try_release_barrier = [&]() -> bool {
    u32 waiting = 0;
    Cycle release = 0;
    for (auto& core : cores_) {
      if (core->status() == StepStatus::kAtBarrier) {
        ++waiting;
        release = std::max(release, core->barrier_arrival());
      } else if (core->status() != StepStatus::kHalted) {
        return false;  // someone is still running toward the barrier
      }
    }
    if (waiting == 0) return false;
    for (auto& core : cores_) {
      if (core->status() == StepStatus::kAtBarrier) core->release_barrier(release);
    }
    ++stats.barriers;
    return true;
  };

  while (running > 0) {
    // Pick the runnable core with the smallest issue horizon; ties go
    // round-robin starting from a rotating origin so equal-time cores
    // interleave fairly and deterministically.
    u32 pick = n;
    Cycle best = 0;
    for (u32 off = 0; off < n; ++off) {
      const u32 i = (rr_start_ + off) % n;
      if (cores_[i]->status() != StepStatus::kRunning) continue;
      const Cycle horizon = cores_[i]->issue_horizon();
      if (pick == n || horizon < best) {
        pick = i;
        best = horizon;
      }
    }
    SMTU_CHECK_MSG(pick < n, "no runnable core (scheduler invariant broken)");
    rr_start_ = (pick + 1) % n;

    const StepStatus status = cores_[pick]->step();
    if (status == StepStatus::kRunning) continue;
    if (status == StepStatus::kHalted) --running;
    // A core stopped (barrier or halt): the pending barrier, if any, may
    // now have its full quorum.
    if (try_release_barrier()) {
      running = 0;
      for (auto& core : cores_) {
        if (core->status() == StepStatus::kRunning) ++running;
      }
    }
  }

  // Every core halted; any barrier still pending would be a deadlock
  // (caught above: try_release_barrier fires as soon as no core runs).
  stats.core_stats.reserve(n);
  for (auto& core : cores_) {
    SMTU_CHECK_MSG(core->status() == StepStatus::kHalted,
                   "core stuck at a barrier no other core will reach");
    stats.core_stats.push_back(core->finish_run());
    stats.cycles = std::max(stats.cycles, stats.core_stats.back().cycles);
  }
  stats.memory = memsys_->stats();
  return stats;
}

}  // namespace smtu::vsim
