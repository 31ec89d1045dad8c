// End-to-end integration over the (scaled) benchmark suite: every matrix of
// all three D-SAB sets goes through both transposition kernels on the
// simulated machine with full verification, plus the qualitative claims of
// the paper's figures at small scale.
#include <gtest/gtest.h>

#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/utilization.hpp"
#include "suite/dsab.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;

constexpr double kScale = 0.06;

class SuiteIntegration : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteIntegration, BothKernelsCorrectOnEveryMatrix) {
  const vsim::MachineConfig config;
  for (const auto& entry : suite::build_dsab_set(GetParam(), {.scale = kScale})) {
    const Coo expected = entry.matrix.transposed();
    const auto hism_result =
        kernels::run_hism_transpose(testing::hism_stage(entry.matrix, config.section), config);
    ASSERT_TRUE(coo_equal(hism_result.transposed.to_coo(), expected)) << entry.name;
    ASSERT_TRUE(hism_result.transposed.validate()) << entry.name;
    const auto crs_result =
        kernels::run_crs_transpose(testing::crs_stage(entry.matrix), config);
    ASSERT_TRUE(coo_equal(crs_result.transposed, expected)) << entry.name;
    // The headline claim holds on every suite matrix, even scaled down.
    EXPECT_LT(hism_result.stats.cycles, crs_result.stats.cycles) << entry.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Sets, SuiteIntegration,
                         ::testing::Values(suite::kSetLocality, suite::kSetAnz,
                                           suite::kSetSize));

TEST(SuiteIntegrationFigures, SpeedupGrowsWithLocalityAtSmallScale) {
  // Fig. 11's qualitative trend, checked end-to-end: the top half of the
  // locality set must beat the bottom half on average speedup.
  const vsim::MachineConfig config;
  const auto set = suite::build_dsab_set(suite::kSetLocality, {.scale = 0.2});
  double low = 0.0;
  double high = 0.0;
  for (const auto& entry : set) {
    const double speedup =
        static_cast<double>(
            kernels::run_crs_transpose(testing::crs_stage(entry.matrix), config).stats.cycles) /
        static_cast<double>(
            kernels::run_hism_transpose(testing::hism_stage(entry.matrix, config.section),
                                        config)
                .stats.cycles);
    (entry.index < 5 ? low : high) += speedup;
  }
  EXPECT_GT(high, 1.5 * low);
}

TEST(SuiteIntegrationFigures, UtilizationHighestAtBandwidthOne) {
  // Fig. 10's headline ordering on the scaled suite.
  const auto set = suite::build_dsab_set(suite::kSetAnz, {.scale = 0.2});
  double sum_b1 = 0.0;
  double sum_b8 = 0.0;
  for (const auto& entry : set) {
    const kernels::StmTraceSet traces =
        kernels::stm_block_traces(HismMatrix::from_coo(entry.matrix, 64));
    StmConfig config;
    config.bandwidth = 1;
    sum_b1 += kernels::stm_utilization(traces, config).utilization;
    config.bandwidth = 8;
    sum_b8 += kernels::stm_utilization(traces, config).utilization;
  }
  EXPECT_GT(sum_b1, sum_b8);
  EXPECT_GT(sum_b1 / 10.0, 0.85);  // near-full at B = 1
}

}  // namespace
}  // namespace smtu
