// Quickstart: build a sparse matrix, store it in the HiSM format, transpose
// it with the simulated STM-equipped vector processor, and verify the result
// against the pure-software reference.
//
//   ./quickstart
#include <cstdio>

#include "formats/coo.hpp"
#include "hism/hism.hpp"
#include "hism/transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "support/rng.hpp"
#include "vsim/config.hpp"

int main() {
  using namespace smtu;

  // 1. A 500 x 300 sparse matrix with ~4000 random non-zeros.
  Rng rng(2026);
  Coo matrix(500, 300);
  for (const u64 cell : rng.sample_without_replacement(500 * 300, 4000)) {
    matrix.add(cell / 300, cell % 300, static_cast<float>(rng.uniform(0.1, 1.0)));
  }
  matrix.canonicalize();
  std::printf("matrix: %llu x %llu, %zu non-zeros\n",
              static_cast<unsigned long long>(matrix.rows()),
              static_cast<unsigned long long>(matrix.cols()), matrix.nnz());

  // 2. Convert to the Hierarchical Sparse Matrix format for the paper's
  //    s = 64 vector machine.
  const vsim::MachineConfig config;  // section 64, B = 4, L = 4, chaining on
  const HismMatrix hism = HismMatrix::from_coo(matrix, config.section);
  std::printf("HiSM: %u levels, %zu level-0 block-arrays\n", hism.num_levels(),
              hism.level(0).size());

  // 3. Stage its memory image once, then run the recursive transpose kernel
  //    (Fig. 6/7 of the paper) on the simulated vector processor with the
  //    STM functional unit.
  const kernels::HismStage stage = kernels::build_hism_stage(hism);
  const kernels::HismTransposeResult result = kernels::run_hism_transpose(stage, config);
  std::printf("simulated transpose: %llu cycles (%.2f cycles per non-zero), "
              "%llu instructions, %llu s^2-block passes through the STM\n",
              static_cast<unsigned long long>(result.stats.cycles),
              static_cast<double>(result.stats.cycles) / static_cast<double>(matrix.nnz()),
              static_cast<unsigned long long>(result.stats.instructions),
              static_cast<unsigned long long>(result.stats.stm_blocks));

  // 4. Verify: decoded simulator output == software reference transpose.
  const Coo expected = matrix.transposed();
  const bool simulator_correct = structurally_equal(result.transposed.to_coo(), expected);
  const bool reference_correct = structurally_equal(transposed(hism).to_coo(), expected);
  std::printf("verification: simulator %s, software reference %s\n",
              simulator_correct ? "OK" : "MISMATCH", reference_correct ? "OK" : "MISMATCH");
  return simulator_correct && reference_correct ? 0 : 1;
}
