// SELL-C-σ SpMV on the (multi-core) vector machine.
//
// One chunk of C rows maps to C vector lanes: the kernel streams the chunk's
// value/column slices lane-major, gathers x by column index, accumulates one
// partial sum per lane, and scatters the results through the permutation
// vector. There is no per-row control flow, so short irregular rows cost a
// fraction of the CRS kernel's per-row strip-mining overhead.
//
// The accumulation order per row is ascending-column, one f32 add per slot —
// exactly Csr::spmv — and padding slots contribute a signed zero that never
// changes the accumulator bits, so the result is bit-identical to the host
// CSR reference at any core count.
#pragma once

#include <string>
#include <vector>

#include "formats/sell.hpp"
#include "vsim/system.hpp"

namespace smtu::kernels {

// SPMD program; requires the format's chunk height C <= machine section.
std::string sell_spmv_source();

struct SellSpmvResult {
  vsim::SystemRunStats stats;
  std::vector<float> y;
};

// Runs y = A x with chunks distributed over the system's cores, balanced by
// stored slots. N = 1 reproduces the single-core machine bit for bit.
SellSpmvResult run_sell_spmv(const SellCSigma& sell, const std::vector<float>& x,
                             const vsim::SystemConfig& config,
                             std::vector<vsim::PerfCounters>* profilers = nullptr);

}  // namespace smtu::kernels
