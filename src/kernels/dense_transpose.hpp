// The §II baseline for *dense* matrices: "the problem is trivial and can be
// solved by addressing a row-wise stored matrix with a stride equal to the
// number of rows". This kernel does exactly that on the simulated machine —
// strided column loads, contiguous row stores — and serves two purposes:
//  * a correctness baseline for the vector memory model's strided path;
//  * the motivation experiment: applying the dense method to a sparse
//    matrix costs O(rows * cols) regardless of sparsity, which is why
//    sparse storage (and the STM) exist.
#pragma once

#include <string>

#include "formats/dense.hpp"
#include "vsim/machine.hpp"

namespace smtu::kernels {

const std::string& dense_transpose_source();

struct DenseTransposeResult {
  vsim::RunStats stats;
  Dense transposed;  // read back from simulated memory
};

DenseTransposeResult run_dense_transpose(const Dense& matrix,
                                         const vsim::MachineConfig& config);

}  // namespace smtu::kernels
