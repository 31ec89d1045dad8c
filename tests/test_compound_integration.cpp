// Compound cross-module scenarios: chains of operations a real user would
// string together — export/import through MatrixMarket around a simulated
// transpose; a simulated transpose feeding the transposed-SpMV kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "formats/matrix_market.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/spmv.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

TEST(CompoundIntegration, MatrixMarketRoundTripAroundSimulatedTranspose) {
  Rng rng(2);
  const vsim::MachineConfig config;
  const Coo coo = random_coo(120, 60, 700, rng);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "smtu_compound";
  std::filesystem::create_directories(dir);
  const std::string in_path = (dir / "input.mtx").string();
  const std::string out_path = (dir / "transposed.mtx").string();

  write_matrix_market_file(in_path, coo);
  const Coo loaded = read_matrix_market_file(in_path);
  const auto result =
      kernels::run_hism_transpose(testing::hism_stage(loaded, config.section), config);
  write_matrix_market_file(out_path, result.transposed.to_coo());
  const Coo reloaded = read_matrix_market_file(out_path);

  EXPECT_TRUE(coo_equal(reloaded, coo.transposed()));
  std::filesystem::remove_all(dir);
}

TEST(CompoundIntegration, TransposeThenTransposedSpmvEqualsForwardSpmv) {
  // (A^T)^T x via: kernel-transpose A, then the transpose-free A^T-product
  // of the *transposed* matrix — which is A x again.
  Rng rng(4);
  const vsim::MachineConfig config;
  const Coo coo = random_coo(100, 100, 800, rng);
  const kernels::HismStage stage = testing::hism_stage(coo, config.section);
  std::vector<float> x(100);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const auto forward = kernels::run_hism_spmv(stage, x, config);
  const kernels::HismStage transposed =
      kernels::build_hism_stage(kernels::run_hism_transpose(stage, config).transposed);
  const auto round_about = kernels::run_hism_spmv_transposed(transposed, x, config);

  for (usize i = 0; i < 100; ++i) {
    EXPECT_NEAR(forward.y[i], round_about.y[i],
                1e-4f * std::max(1.0f, std::fabs(forward.y[i])))
        << i;
  }
}

}  // namespace
}  // namespace smtu
