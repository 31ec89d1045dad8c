// The HiSM transposition kernel (Fig. 6/7 of the paper), hand-written in the
// vsim assembly language and executed on the simulated vector processor with
// the STM functional unit.
//
// The kernel is the paper's recursive transpose_block procedure with a real
// call stack in simulated memory. One deviation, forced by correctness and
// noted in DESIGN.md: for levels >= 1 the lengths-vector pass runs *before*
// the element pass (Fig. 6 lists it after). Both passes drain the s x s
// memory in the same order (they scatter the same positions), but the
// element pass rewrites the stored positions in place — running it first
// would leave the lengths pass without the original positions to scatter by.
// The lengths pass therefore goes first and stores only the permuted lengths
// (v_stbv), leaving positions for the element pass to consume and rewrite.
#pragma once

#include <string>

#include "hism/hism.hpp"
#include "kernels/staging.hpp"
#include "vsim/machine.hpp"

namespace smtu::kernels {

// The kernel source; independent of machine parameters (strip mining adapts
// via ssvl, recursion via the level argument).
//
// `split_drain_registers`: use vr3/vr4 for the drain loops instead of
// reusing vr1/vr2 — removes the write-after-read serialization between a
// block's drain and the next block's fill, which matters only on a
// double-buffered STM (StmConfig::double_buffer); the default matches the
// paper's Fig. 7 register usage.
std::string hism_transpose_source(bool split_drain_registers = false);

struct HismTransposeResult {
  vsim::RunStats stats;
  HismMatrix transposed;  // decoded back from simulated memory
};

// Runs the kernel on a fresh machine that attaches the stage's snapshot
// (kernels/staging.hpp) and decodes the result. A non-null `trace` collects
// per-instruction timing events (see vsim/trace.hpp and docs/TRACE.md); the
// trace is not cleared first. A non-null `profiler` receives cycle
// attribution (vsim/profiler.hpp, docs/PROFILING.md); counters are not
// reset first.
HismTransposeResult run_hism_transpose(const HismStage& stage,
                                       const vsim::MachineConfig& config,
                                       bool split_drain_registers = false,
                                       vsim::ExecutionTrace* trace = nullptr,
                                       vsim::PerfCounters* profiler = nullptr);

// Cycle count only (skips the decode for benchmark sweeps).
vsim::RunStats time_hism_transpose(const HismStage& stage, const vsim::MachineConfig& config,
                                   bool split_drain_registers = false,
                                   vsim::ExecutionTrace* trace = nullptr,
                                   vsim::PerfCounters* profiler = nullptr);

// Software-pipelined variant for the double-buffered STM (extension E4):
// while leaf child k drains from one bank, child k+1 fills the other.
// Requires config.stm.double_buffer.
std::string hism_transpose_pipelined_source();
HismTransposeResult run_hism_transpose_pipelined(const HismStage& stage,
                                                 const vsim::MachineConfig& config);
vsim::RunStats time_hism_transpose_pipelined(const HismStage& stage,
                                             const vsim::MachineConfig& config);

}  // namespace smtu::kernels
