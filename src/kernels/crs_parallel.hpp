// The classic parallel CRS->CRS transpose, as the multi-core baseline the
// sharded HiSM transpose (kernels/shard.hpp) is measured against.
//
// Four barrier-separated SPMD phases (docs/MULTICORE.md):
//   0. zero the per-column counters (vectorized, column slices)
//   1. column histogram: each core walks a non-zero slice and `amo_add`s
//      its column's counter, capturing the returned old count as the
//      element's slot within its column (SLOT array)
//   2. exclusive prefix sum of the counters into IAT: vectorized per-slice
//      totals + a cross-core offset from the PARTIAL array, then a scalar
//      per-slice scan
//   3. scatter: each core owns an nnz-balanced contiguous row range and
//      writes every element to IAT[JA[k]] + SLOT[k] — no cursor updates,
//      hence no cross-core races
//
// Within a transposed row elements land in phase-1 arrival order, not
// sorted — a valid CRS; correctness checks canonicalize to COO.
#pragma once

#include <string>
#include <vector>

#include "formats/csr.hpp"
#include "vsim/system.hpp"

namespace smtu::kernels {

// The SPMD kernel source. Per-core phase bounds and array addresses arrive
// through a host-staged descriptor whose address is in r20.
std::string parallel_crs_transpose_source();

struct ParallelCrsTransposeResult {
  vsim::SystemRunStats stats;
  Coo transposed;  // read back from ANT/JAT/IAT, canonical
};

// Stages `csr` in a fresh system, runs the kernel on all cores, reads the
// transpose back. A non-null `profilers` is resized to the core count and
// profiler c attaches to core c.
ParallelCrsTransposeResult run_parallel_crs_transpose(
    const Csr& csr, const vsim::SystemConfig& config,
    std::vector<vsim::PerfCounters>* profilers = nullptr);

}  // namespace smtu::kernels
