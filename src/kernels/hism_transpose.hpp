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
#include <string_view>

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

// Software-pipelined variant for the double-buffered STM (extension E4):
// while leaf child k drains from one bank, child k+1 fills the other. It
// runs only on StmConfig::double_buffer: on a single bank, the second icm
// of a level-1 block with two or more leaf children would clear a block
// still draining, which the STM model refuses.
std::string hism_transpose_pipelined_source();

struct HismTransposeResult {
  vsim::RunStats stats;
  HismMatrix transposed;  // decoded back from simulated memory
};

// Runs a transposition program on transpose_machine(stage, config)
// (kernels/staging.hpp) and decodes the result. An empty `source` runs the
// paper's kernel, hism_transpose_source(). A non-null `trace` collects
// per-instruction timing events (see vsim/trace.hpp and docs/TRACE.md); the
// trace is not cleared first. A non-null `profiler` receives cycle
// attribution (vsim/profiler.hpp, docs/PROFILING.md); counters are not
// reset first.
HismTransposeResult run_hism_transpose(const HismStage& stage,
                                       const vsim::MachineConfig& config,
                                       std::string_view source = {},
                                       vsim::ExecutionTrace* trace = nullptr,
                                       vsim::PerfCounters* profiler = nullptr);

}  // namespace smtu::kernels
