// Timing/functional separation: machine *timing* parameters (chaining,
// branch penalty, issue width, memory pipelining, STM bandwidth/lines) must
// never change architectural results — only cycle counts. Catches any
// accidental coupling between the resource-time model and execution.
#include <gtest/gtest.h>

#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/spmv.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

std::vector<vsim::MachineConfig> timing_variants() {
  std::vector<vsim::MachineConfig> variants;
  {
    vsim::MachineConfig c;  // defaults
    variants.push_back(c);
  }
  {
    vsim::MachineConfig c;
    c.chaining = false;
    variants.push_back(c);
  }
  {
    vsim::MachineConfig c;
    c.mem_pipelined_startup = false;
    c.branch_penalty = 9;
    variants.push_back(c);
  }
  {
    vsim::MachineConfig c;
    c.scalar_issue_width = 1;
    c.scalar_load_latency = 25;
    c.mem_startup = 40;
    variants.push_back(c);
  }
  {
    vsim::MachineConfig c;
    c.stm.bandwidth = 1;
    c.stm.lines = 1;
    variants.push_back(c);
  }
  {
    vsim::MachineConfig c;
    c.stm.bandwidth = 8;
    c.stm.lines = 8;
    c.stm.strict_consecutive_lines = false;
    variants.push_back(c);
  }
  return variants;
}

TEST(ConfigInvariance, TransposeResultsIdenticalAcrossTimingConfigs) {
  Rng rng(77);
  const Coo coo = random_coo(200, 150, 1500, rng);
  const Coo expected = coo.transposed();
  const kernels::CrsStage crs = testing::crs_stage(coo);

  std::vector<Cycle> cycles_seen;
  for (const vsim::MachineConfig& config : timing_variants()) {
    const auto hism_result =
        kernels::run_hism_transpose(testing::hism_stage(coo, config.section), config);
    EXPECT_TRUE(coo_equal(hism_result.transposed.to_coo(), expected));
    const auto crs_result = kernels::run_crs_transpose(crs, config);
    EXPECT_TRUE(coo_equal(crs_result.transposed, expected));
    cycles_seen.push_back(hism_result.stats.cycles);
  }
  // Sanity: the knobs do change *timing*.
  EXPECT_NE(cycles_seen.front(), cycles_seen[1]);
}

TEST(ConfigInvariance, SpmvResultsIdenticalAcrossTimingConfigs) {
  Rng rng(78);
  const Coo coo = random_coo(120, 120, 900, rng);
  std::vector<float> x(120);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> baseline;
  for (const vsim::MachineConfig& config : timing_variants()) {
    const auto result = kernels::run_hism_spmv(testing::hism_stage(coo, config.section), x, config);
    if (baseline.empty()) {
      baseline = result.y;
    } else {
      // Bit-identical: same functional execution order regardless of timing.
      EXPECT_EQ(result.y, baseline);
    }
  }
}

TEST(ConfigInvariance, InstructionCountsAreTimingIndependent) {
  Rng rng(79);
  const Coo coo = random_coo(100, 100, 700, rng);
  u64 baseline_instructions = 0;
  for (const vsim::MachineConfig& config : timing_variants()) {
    const auto stats =
        kernels::run_hism_transpose(testing::hism_stage(coo, config.section), config).stats;
    if (baseline_instructions == 0) {
      baseline_instructions = stats.instructions;
    } else {
      EXPECT_EQ(stats.instructions, baseline_instructions);
    }
  }
}

}  // namespace
}  // namespace smtu
