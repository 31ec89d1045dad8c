// The baseline: Pissanetsky's CRS transposition (Fig. 9 of the paper),
// vectorized exactly as §IV-A describes and run on the simulated vector
// processor *without* using the STM:
//
//   * Phase 1 (per-column counts) is executed as scalar code on the 4-way
//     issue core — the paper's authors explicitly chose not to vectorize it
//     because the mask-based vectorization is inefficient for sparse data.
//   * Phase 2 (scan-add over IAT) is vectorized with the log-step
//     slide-and-add scheme of Wang et al. [11], one scalar carry per strip.
//   * Phase 3 (the permutation loop nest) is vectorized per the paper's
//     pseudo-assembly: contiguous loads of JA/AN slices, a gather of the
//     IAT cursors, scatters into JAT/ANT, and a scattered cursor update.
//
// A final strip-mined pass restores IAT from row-ends to row-starts (the
// in-place cursor update of Fig. 9 leaves IAT shifted by one row).
#pragma once

#include <string>
#include <string_view>

#include "kernels/staging.hpp"
#include "vsim/machine.hpp"

namespace smtu::kernels {

struct CrsKernelOptions {
  // Rows with fewer non-zeros than this run through a scalar element loop
  // instead of the vector sequence — the standard hand-coding move on
  // vector machines, where a one-element gather still pays the full memory
  // startup. 0 disables the scalar path (the naive all-vector variant,
  // kept for the ablation benchmarks).
  u32 short_row_threshold = 4;
  // Phase 1 as the mask-vector scheme §IV-A describes and *rejects*: for
  // every column, compare the whole JA array against the column index
  // (v_seqs) and reduce the mask — O(cols * nnz / s) vector work. The
  // default is the scalar histogram the authors actually used; the masked
  // variant exists to reproduce their design decision quantitatively.
  bool masked_phase1 = false;
};

// Kernel source for a machine with section size `section` (a power of two;
// the strip-mining arithmetic uses section-sized masks and the scan uses
// log2(section) slide steps).
std::string crs_transpose_source(u32 section, const CrsKernelOptions& options = {});

// Pissanetsky's algorithm entirely in scalar code — what a traditional
// scalar processor runs. No vector unit, no STM; the comparison point for
// how much the vector machine itself buys before HiSM enters the picture.
const std::string& scalar_crs_transpose_source();

struct CrsTransposeResult {
  vsim::RunStats stats;
  Coo transposed;  // read back from simulated memory
};

// Runs a transposition program on transpose_machine(stage, config)
// (kernels/staging.hpp) and reads the transpose back. An empty `source`
// runs the paper's baseline, crs_transpose_source(config.section); the
// variants above are programs for it too. A non-null `profiler` receives
// cycle attribution for the run (see vsim/profiler.hpp and
// docs/PROFILING.md); counters are not reset first.
CrsTransposeResult run_crs_transpose(const CrsStage& stage, const vsim::MachineConfig& config,
                                     std::string_view source = {},
                                     vsim::PerfCounters* profiler = nullptr);

}  // namespace smtu::kernels
