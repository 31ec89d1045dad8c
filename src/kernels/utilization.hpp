// STM buffer-bandwidth utilization analysis (§IV-C of the paper).
//
// Times every block-array of a HiSM matrix from its line runs with
// stream_cycles and grouped_drain_cycles, the rules StmUnit's fill and drain
// apply entry by entry, mimicking the transpose kernel's pass structure:
// one pass per level-0 block, two passes (lengths vector + elements) per
// higher-level block. A stream of n entries on r runs of equal line ids
// costs about r steps per (B, L) point instead of n. Utilization counts
// element transfers (fill + drain) against cycles * B — the reading of the
// paper's BU = (Z/C)/B under which B = 1 approaches 1.0 with only the
// 6-cycle block penalty missing (DESIGN.md §1).
#pragma once

#include <span>

#include "hism/hism.hpp"
#include "stm/unit.hpp"

namespace smtu::kernels {

struct UtilizationBreakdown {
  u64 transfers = 0;     // elements in + elements out, all passes
  u64 cycles = 0;        // fill + drain + pipeline tails, all passes
  u64 block_passes = 0;
  double utilization = 0.0;  // transfers / (cycles * B)
};

// The line runs one block streams through the unit, which are all the
// timing model needs: payloads never affect cycles, and the lengths pass of
// a higher-level block touches the same positions as its elements pass.
// Extracting them once lets a (B, L) sweep reuse one trace per block
// instead of re-running the functional unit per configuration. A block's
// runs are offsets into its StmTraceSet's one run array.
struct StmBlockTrace {
  u32 fill = 0;     // runs[fill, drain): storage-order rows (the fill stream)
  u32 drain = 0;    // runs[drain, end): rows of the transposed drain order
  u32 end = 0;
  u32 entries = 0;  // elements in the block
  u32 passes = 1;   // 1 for level-0 blocks, 2 above (lengths + elements)
};

struct StmTraceSet {
  u32 section = 64;  // the matrix's s, overriding StmConfig::section
  std::vector<StmRun> runs;  // every block's fill runs, then its drain runs
  std::vector<StmBlockTrace> blocks;

  std::span<const StmRun> fill_runs(const StmBlockTrace& block) const {
    return std::span<const StmRun>(runs).subspan(block.fill, block.drain - block.fill);
  }
  std::span<const StmRun> drain_runs(const StmBlockTrace& block) const {
    return std::span<const StmRun>(runs).subspan(block.drain, block.end - block.drain);
  }
};

StmTraceSet stm_block_traces(const HismMatrix& hism);

// Utilization of one (B, L, rule) point over a matrix's traces: one run
// walk per block stream, charged once per block pass, with no functional
// unit or payload in the loop. A sweep takes the traces once and calls this
// per point. Aborts unless the point passes check_stm_config at the
// traces' section.
UtilizationBreakdown stm_utilization(const StmTraceSet& traces, const StmConfig& config);

}  // namespace smtu::kernels
