// Sparse matrix-matrix multiplication C = A^T * B on the (multi-core)
// vector machine: row-wise Gustavson driven by the STM.
//
// Gustavson's algorithm forms row i of C as a sum of scaled rows of B:
// C[i,:] += A^T[i,k] * B[k,:]. The catch is that A is stored by rows (of A),
// so A^T's rows are scattered. HiSM dissolves this: the kernel walks A's
// block hierarchy, pushes every level-0 block through the s x s transpose
// memory, and the column-wise drain hands back the block's entries sorted
// by (column of A, row of A) = (i, k) — exactly the access pattern
// Gustavson needs — without ever materializing A^T.
//
// Each drained entry (i, k, a) then merges a * B[k,:] into the dense
// accumulator row C[i,:] with one gather-free vector pass: v_ld of B's
// column indices and values, v_fmul by the broadcast scalar, and the
// indexed scatter-accumulate v_scax into C[i,:].
//
// Cores partition the output rows i (s-aligned stripes, nnz-balanced); the
// shared walk is replicated and blocks outside a core's stripe are pruned
// by their column span. Because blocks are visited row-major and the drain
// is (i, k)-sorted, every C[i,j] accumulates its k-terms in ascending-k
// order on every core count — bit-identical to the host reference.
#pragma once

#include <string>
#include <vector>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "vsim/system.hpp"

namespace smtu::kernels {

// SPMD kernel source; `section` must be a power of two (span arithmetic
// uses shifts, as in the HiSM SpMV walk).
std::string hism_spgemm_source(u32 section);

struct SpgemmResult {
  vsim::SystemRunStats stats;
  Index rows = 0;              // n = a.cols()
  Index cols = 0;              // p = b.cols()
  std::vector<float> dense;    // row-major n x p accumulator read-back
};

// Host-side reference with the kernel's exact accumulation order (per output
// row i, ascending k; per term, B's row order): the kernel result must be
// bit-identical to this at any core count.
std::vector<float> spgemm_at_b_reference_dense(const Coo& a, const Csr& b);
Coo spgemm_at_b_reference(const Coo& a, const Csr& b);

// Runs C = A^T * B. A is staged as a HiSM image (section taken from the
// machine config), B as CRS arrays, C as a zeroed dense n x p buffer.
SpgemmResult run_hism_spgemm(const Coo& a, const Csr& b, const vsim::SystemConfig& config,
                             std::vector<vsim::PerfCounters>* profilers = nullptr);

}  // namespace smtu::kernels
