// Sparse matrix-vector multiplication kernels for the simulated vector
// processor — the operation that motivates HiSM in the first place (the
// companion paper [5] reports up to 5x over JD and CRS on a conventional
// vector machine).
//
// Three implementations, all as real assembly programs:
//   * HiSM: recursive block walk; per level-0 block, v_ldb streams entries,
//     v_gthc gathers x by the 8-bit column positions, v_scar accumulates
//     into y by the row positions (the positional multiply-accumulate of
//     the HiSM ISA extension).
//   * CRS: per-row gather of x by JA, vector multiply, float reduction, and
//     a scalar accumulate across strips.
//   * JD : per-jagged-diagonal fully contiguous accumulation into the
//     permuted result, one gather of x per diagonal strip, plus a final
//     unpermute scatter.
#pragma once

#include <string>
#include <vector>

#include "formats/jagged.hpp"
#include "kernels/staging.hpp"
#include "vsim/machine.hpp"

namespace smtu::kernels {

// Kernel sources (section must be a power of two for the HiSM kernel's
// span arithmetic).
std::string hism_spmv_source(u32 section);
std::string crs_spmv_source();
std::string jd_spmv_source();

struct SpmvResult {
  vsim::RunStats stats;
  std::vector<float> y;  // read back from simulated memory
};

// The HiSM and CRS runners run on a fresh machine that attaches the
// stage's snapshot (kernels/staging.hpp); x and a zeroed y follow the
// image. JD has no stage: run_jd_spmv writes its arrays into the machine.
SpmvResult run_hism_spmv(const HismStage& stage, const std::vector<float>& x,
                         const vsim::MachineConfig& config);

// y = A^T * x *without transposing*: the same block stream drives
// y[col] += value * x[row] via the mirror positional ops (v_gthr/v_scac).
// This is a structural consequence of HiSM's symmetric 8+8-bit positions —
// CRS has no cheap equivalent (its column indices are one-sided).
std::string hism_spmv_transposed_source(u32 section);
SpmvResult run_hism_spmv_transposed(const HismStage& stage, const std::vector<float>& x,
                                    const vsim::MachineConfig& config);
SpmvResult run_crs_spmv(const CrsStage& stage, const std::vector<float>& x,
                        const vsim::MachineConfig& config);
SpmvResult run_jd_spmv(const Jagged& jd, const std::vector<float>& x,
                       const vsim::MachineConfig& config);

}  // namespace smtu::kernels
