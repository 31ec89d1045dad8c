// STM buffer-bandwidth utilization analysis (§IV-C of the paper).
//
// Times every block-array of a HiSM matrix with stream_cycles, the stream
// timing StmUnit's fill and drain share, mimicking the transpose kernel's
// pass structure: one pass per level-0 block, two passes (lengths vector +
// elements) per higher-level block. Utilization counts element transfers (fill + drain) against
// cycles * B — the reading of the paper's BU = (Z/C)/B under which B = 1
// approaches 1.0 with only the 6-cycle block penalty missing (DESIGN.md §1).
#pragma once

#include "hism/hism.hpp"
#include "stm/unit.hpp"

namespace smtu::kernels {

struct UtilizationBreakdown {
  u64 transfers = 0;     // elements in + elements out, all passes
  u64 cycles = 0;        // fill + drain + pipeline tails, all passes
  u64 block_passes = 0;
  double utilization = 0.0;  // transfers / (cycles * B)
};

// The line sequences one block streams through the unit, which are all the
// timing model needs: payloads never affect cycles, and the lengths pass of
// a higher-level block touches the same positions as its elements pass.
// Extracting them once lets a (B, L) sweep reuse one trace per block
// instead of re-running the functional unit per configuration.
struct StmBlockTrace {
  std::vector<u8> fill_lines;   // storage-order rows (the fill stream)
  std::vector<u8> drain_lines;  // rows of the transposed drain order
  u32 passes = 1;               // 1 for level-0 blocks, 2 above (lengths + elements)
};

struct StmTraceSet {
  u32 section = 64;  // the matrix's s, overriding StmConfig::section
  std::vector<StmBlockTrace> blocks;
};

StmTraceSet stm_block_traces(const HismMatrix& hism);

// Utilization of one (B, L, rule) point over a matrix's traces: one stream
// pass per block pass, with no functional unit or payload in the loop. A
// sweep takes the traces once and calls this per point.
UtilizationBreakdown stm_utilization(const StmTraceSet& traces, const StmConfig& config);

}  // namespace smtu::kernels
