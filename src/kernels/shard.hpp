// Block-row sharding of a HiSM matrix across the cores of a multi-core
// system, and the SPMD parallel transpose built on it (docs/MULTICORE.md).
//
// The matrix is cut along *top-level block rows*: each panel owns a
// contiguous range of the root block-array's row coordinates, so every
// top-level entry — and with it the entire subtree below it — lands in
// exactly one panel. Each panel is serialized as a standalone HiSM image
// (global coordinates, the full matrix's declared dimensions, hence the
// same level count), each core runs the paper's recursive transpose on its
// panel in place, and after a barrier a scalar merge phase scatters the
// panels' transposed root entries into one merged root block-array at
// host-precomputed global ranks. Child pointers are absolute addresses
// (hism/image.hpp), so the merged root references the transposed panel
// subtrees where they already live — the merge copies only the root.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "formats/coo.hpp"
#include "hism/hism.hpp"
#include "vsim/system.hpp"

namespace smtu::kernels {

// The work split of every SPMD kernel: contiguous item ranges of near-equal
// work, one per part. `prefix` is the prefix sum of the items' work
// (prefix[0] == 0 and prefix[i + 1] - prefix[i] is item i's work), so it
// holds one entry more than there are items. Cut c, for 0 < c < parts, is
// the first index where the prefix reaches c/parts of the total; cut 0 is
// 0 and cut `parts` the item count. Returns the parts + 1 cuts; part p
// owns items [cut p, cut p+1), which may be empty.
std::vector<u64> balanced_cuts(std::span<const u32> prefix, u32 parts);

// One core's panel: a standalone HiSM covering a contiguous range of
// top-level block rows (empty when the matrix has fewer useful block rows
// than the system has cores).
struct HismPanel {
  HismMatrix hism;        // valid only when nnz > 0
  u32 top_row_begin = 0;  // root-level row coordinate range [begin, end)
  u32 top_row_end = 0;
  usize nnz = 0;
};

struct HismShardPlan {
  std::vector<HismPanel> panels;  // one per core, in core order
  u32 levels = 0;                 // level count shared by all panels
};

// Cuts `coo` into `cores` panels along top-level block rows, balancing
// non-zeros over contiguous block-row ranges (balanced_cuts).
HismShardPlan shard_hism(const Coo& coo, u32 section, u32 cores);

// The SPMD kernel source: per-core panel transpose (the unmodified
// recursive transpose_block of kernels/hism_transpose.cpp), a barrier,
// then the scalar root-merge scatter. Every core runs the same program;
// per-core panel descriptors arrive via r20.
std::string sharded_hism_transpose_source();

struct ShardedHismTransposeResult {
  vsim::SystemRunStats stats;
  Coo transposed;  // decoded from the merged image, canonical
};

// Shards `coo`, stages the panels in a fresh system, runs the SPMD kernel
// on all cores, and decodes the merged transposed matrix back. A non-null
// `profilers` is resized to the core count and profiler c attaches to
// core c (per-core cycle attribution; see docs/PROFILING.md).
ShardedHismTransposeResult run_sharded_hism_transpose(
    const Coo& coo, const vsim::SystemConfig& config,
    std::vector<vsim::PerfCounters>* profilers = nullptr);

}  // namespace smtu::kernels
