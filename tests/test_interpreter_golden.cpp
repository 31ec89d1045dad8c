// Golden digests of the simulated machine, one per kernel class.
//
// Each digest is a SimHash over every run's write_run_stats_json and
// write_profile_json text and its result bytes, plus the final memory image
// where the test owns the Machine. The HiSM and CRS transposes run over the
// 30 D-SAB matrices at scale 0.05, the inputs of
// bench/baselines/BENCH_summary_scale005.json; SELL SpMV, SpGEMM and the
// 4-core sharded HiSM transpose run over seeded random matrices with a
// profiler on every core. A digest therefore moves with any simulated
// cycle, profiler bucket, instruction count or result byte.
//
// The values were recorded from two interpreters that agreed bit for bit:
// the threaded handlers of src/vsim/machine.cpp and the switch interpreter
// that preceded them. The HiSM and CRS digests were recorded on memory the
// image was written into and are reproduced on stages attached
// copy-on-write (kernels/staging.hpp). When a change moves the timing on
// purpose, the failure prints the new digest; replace the one line.
//
// The death tests cover the contiguous vector memory paths, which check one
// span per instruction: an access past the end of memory still aborts.
#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <vector>

#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "formats/sell.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/layout.hpp"
#include "kernels/sell_spmv.hpp"
#include "kernels/shard.hpp"
#include "kernels/spgemm.hpp"
#include "suite/dsab.hpp"
#include "support/json.hpp"
#include "testing.hpp"
#include "vsim/assembler.hpp"
#include "vsim/json_export.hpp"
#include "vsim/machine.hpp"
#include "vsim/profiler.hpp"
#include "vsim/sim_cache.hpp"
#include "vsim/system.hpp"

namespace smtu {
namespace {

using testing::random_coo;

template <typename Write>
void add_json(vsim::SimHash& digest, Write&& write) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    write(json);
  }
  digest.update(out.str());
}

void add_run(vsim::SimHash& digest, const vsim::RunStats& stats,
             const vsim::PerfCounters& profile) {
  add_json(digest, [&](JsonWriter& json) { vsim::write_run_stats_json(json, stats); });
  add_json(digest, [&](JsonWriter& json) { vsim::write_profile_json(json, profile); });
}

void add_system_run(vsim::SimHash& digest, const vsim::SystemRunStats& stats,
                    const std::vector<vsim::PerfCounters>& profiles) {
  ASSERT_EQ(stats.core_stats.size(), profiles.size());
  digest.update_u64(stats.cycles);
  digest.update_u64(stats.barriers);
  digest.update_u64(stats.memory.requests);
  digest.update_u64(stats.memory.contended_requests);
  digest.update_u64(stats.memory.contention_cycles);
  for (usize core = 0; core < profiles.size(); ++core) {
    add_run(digest, stats.core_stats[core], profiles[core]);
  }
}

void add_coo(vsim::SimHash& digest, const Coo& matrix) {
  digest.update_u64(matrix.rows());
  digest.update_u64(matrix.cols());
  for (const CooEntry& entry : matrix.entries()) {
    digest.update_u64(entry.row);
    digest.update_u64(entry.col);
    digest.update_u64(std::bit_cast<u32>(entry.value));
  }
}

void add_floats(vsim::SimHash& digest, const std::vector<float>& values) {
  digest.update_u64(values.size());
  for (const float value : values) digest.update_u64(std::bit_cast<u32>(value));
}

void expect_digest(const vsim::SimHash& digest, const char* golden) {
  EXPECT_EQ(digest.hex(), golden)
      << "the simulated output changed; if that is intended, the new digest is the first value";
}

Coo test_matrix(u64 seed, Index rows, Index cols, usize nnz) {
  Rng rng(seed);
  return random_coo(rows, cols, nnz, rng);
}

TEST(InterpreterGolden, HismTransposeOverTheSuite) {
  const vsim::MachineConfig config;
  const vsim::Program program = vsim::assemble(kernels::hism_transpose_source());
  vsim::SimHash digest;
  for (const suite::SuiteMatrix& entry : suite::build_dsab_suite({.scale = 0.05})) {
    const kernels::HismStage stage =
        kernels::build_hism_stage(HismMatrix::from_coo(entry.matrix, config.section));
    vsim::Machine machine = kernels::transpose_machine(stage, config);
    vsim::PerfCounters profile;
    machine.attach_profiler(&profile);
    const vsim::RunStats stats = machine.run(program);
    add_run(digest, stats, profile);
    add_coo(digest, kernels::read_back_hism(machine, stage.image, /*swap_dims=*/true).to_coo());
    digest.update(machine.memory().raw());
  }
  expect_digest(digest, "e97950e434d90aba9c93f3e89bf2382b");
}

TEST(InterpreterGolden, CrsTransposeOverTheSuite) {
  const vsim::MachineConfig config;
  vsim::SimHash digest;
  for (const suite::SuiteMatrix& entry : suite::build_dsab_suite({.scale = 0.05})) {
    vsim::PerfCounters profile;
    const kernels::CrsTransposeResult result = kernels::run_crs_transpose(
        kernels::build_crs_stage(Csr::from_coo(entry.matrix)), config, {}, &profile);
    add_run(digest, result.stats, profile);
    add_coo(digest, result.transposed);
  }
  expect_digest(digest, "71d7a96644793b38db8082340fe42707");
}

TEST(InterpreterGolden, SellSpmv) {
  const Coo coo = test_matrix(31, 400, 256, 3000);
  const SellCSigma sell = SellCSigma::from_coo(coo, 16, 0);
  std::vector<float> x(static_cast<usize>(coo.cols()));
  Rng rng(5);
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<vsim::PerfCounters> profiles;
  const kernels::SellSpmvResult result =
      kernels::run_sell_spmv(sell, x, vsim::SystemConfig{}, &profiles);
  vsim::SimHash digest;
  add_system_run(digest, result.stats, profiles);
  add_floats(digest, result.y);
  expect_digest(digest, "0a5cca6f62fdf0dcbf6cb0b024cbf99b");
}

TEST(InterpreterGolden, Spgemm) {
  const Coo a = test_matrix(47, 200, 180, 1500);
  const Csr b = Csr::from_coo(test_matrix(48, 200, 120, 1200));

  std::vector<vsim::PerfCounters> profiles;
  const kernels::SpgemmResult result =
      kernels::run_hism_spgemm(a, b, vsim::SystemConfig{}, &profiles);
  vsim::SimHash digest;
  add_system_run(digest, result.stats, profiles);
  add_floats(digest, result.dense);
  add_coo(digest, Dense(result.rows, result.cols, result.dense).to_coo());
  expect_digest(digest, "7c2c8f3e219ace6160bf54cd613ecebb");
}

TEST(InterpreterGolden, ShardedTransposeFourCores) {
  const Coo coo = test_matrix(53, 500, 480, 4000);
  vsim::SystemConfig config;
  config.cores = 4;

  std::vector<vsim::PerfCounters> profiles;
  const kernels::ShardedHismTransposeResult result =
      kernels::run_sharded_hism_transpose(coo, config, &profiles);
  ASSERT_EQ(profiles.size(), 4u);
  vsim::SimHash digest;
  add_system_run(digest, result.stats, profiles);
  add_coo(digest, result.transposed);
  expect_digest(digest, "edc59c49c57d0704608f5b49a57f395a");
}

TEST(InterpreterDeathTest, ContiguousLoadBeyondMemoryAborts) {
  EXPECT_DEATH(
      {
        vsim::Machine machine{vsim::MachineConfig{}};
        machine.memory().write_u32(0, 1);  // allocate a small region
        machine.run(vsim::assemble(
            "li r1, 64\n"
            "ssvl r1\n"
            "li r2, 0x100000\n"
            "v_ld vr1, (r2)\n"
            "halt\n"));
      },
      "beyond allocated memory");
}

TEST(InterpreterDeathTest, ContiguousStoreBeyondLimitAborts) {
  vsim::MachineConfig config;
  config.memory_limit = 0x1000;
  EXPECT_DEATH(
      {
        vsim::Machine machine(config);
        machine.run(vsim::assemble(
            "li r1, 64\n"
            "ssvl r1\n"
            "li r2, 0xF80\n"  // span [0xF80, 0x1080) crosses the limit
            "v_st vr1, (r2)\n"
            "halt\n"));
      },
      "exceeds the");
}

}  // namespace
}  // namespace smtu
