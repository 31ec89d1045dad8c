// kernels::simulate_transpose, the one path on which the benches and the
// server run a transposition program on a HiSM or CRS image through the sim
// cache: live runs match the runners, cached runs replay them byte for
// byte, and the paper programs' cache keys are the ones earlier builds
// wrote, so their cache directories keep replaying.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/staging.hpp"
#include "kernels/transpose_sim.hpp"
#include "suite/dsab.hpp"
#include "support/json.hpp"
#include "testing.hpp"
#include "vsim/json_export.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu {
namespace {

using kernels::TransposeImage;
using kernels::TransposeProgram;

struct NamedProgram {
  const char* name;
  TransposeProgram program;
};

// The paper's pair, as the figure benches and the server run them.
std::vector<NamedProgram> paper_programs(const vsim::MachineConfig& config) {
  return {{"hism", kernels::hism_transpose_program()},
          {"crs", kernels::crs_transpose_program(config.section)}};
}

std::string stats_json(const vsim::RunStats& stats) {
  std::ostringstream out;
  JsonWriter json(out);
  vsim::write_run_stats_json(json, stats);
  return out.str();
}

std::string profile_json(const vsim::PerfCounters& profile) {
  std::ostringstream out;
  JsonWriter json(out);
  vsim::write_profile_json(json, profile);
  return out.str();
}

// The runner simulate_transpose must agree with.
vsim::RunStats run_directly(const TransposeProgram& program, const Coo& matrix,
                            const vsim::MachineConfig& config,
                            vsim::PerfCounters* profiler = nullptr) {
  if (program.image == TransposeImage::kHism) {
    const auto stage = kernels::MatrixStageCache::instance().hism(matrix, config.section);
    return kernels::run_hism_transpose(*stage, config, program.source, nullptr, profiler).stats;
  }
  const auto stage = kernels::MatrixStageCache::instance().crs(matrix);
  return kernels::run_crs_transpose(*stage, config, program.source, profiler).stats;
}

std::set<std::string> files_in(const testing::TempDir& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir.str())) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

Coo seeded_matrix() {
  Rng rng(22);
  return testing::random_coo(100, 100, 700, rng);
}

TEST(TransposeSim, LiveRunsMatchTheRunnersOnSuiteMatrices) {
  suite::SuiteOptions options;
  options.scale = 0.05;
  const auto set = suite::build_dsab_set(suite::kSetLocality, options);
  ASSERT_GE(set.size(), 3u);
  const vsim::MachineConfig config;
  for (usize i = 0; i < 3; ++i) {
    const Coo& matrix = set[i].matrix;
    for (const auto& [name, program] : paper_programs(config)) {
      SCOPED_TRACE(set[i].name + " " + name);
      const std::string expected = stats_json(run_directly(program, matrix, config));

      const kernels::TransposeRun timed =
          kernels::simulate_transpose(program, matrix, config, false, false, nullptr);
      EXPECT_EQ(stats_json(timed.stats), expected);
      EXPECT_TRUE(timed.profile_json.empty());
      EXPECT_TRUE(timed.correct);

      vsim::PerfCounters live;
      run_directly(program, matrix, config, &live);
      const kernels::TransposeRun profiled =
          kernels::simulate_transpose(program, matrix, config, false, true, nullptr);
      EXPECT_EQ(stats_json(profiled.stats), expected);
      EXPECT_EQ(profiled.profile_json, profile_json(live));

      const kernels::TransposeRun verified =
          kernels::simulate_transpose(program, matrix, config, true, false, nullptr);
      EXPECT_TRUE(verified.correct);
      EXPECT_EQ(stats_json(verified.stats), expected);
    }
  }
}

TEST(TransposeSim, EverySweptProgramMatchesItsRunnerAndVerifies) {
  // The variants the ablation and extension benches sweep, each on the
  // machine its bench runs it on.
  const vsim::MachineConfig config;
  vsim::MachineConfig twin;
  twin.stm.double_buffer = true;
  const struct {
    const char* name;
    TransposeProgram program;
    vsim::MachineConfig config;
  } variants[] = {
      {"split-drain hism",
       {TransposeImage::kHism, kernels::hism_transpose_source(/*split_drain_registers=*/true)},
       config},
      {"pipelined hism", {TransposeImage::kHism, kernels::hism_transpose_pipelined_source()},
       twin},
      {"masked-phase-1 crs",
       {TransposeImage::kCrs, kernels::crs_transpose_source(64, {.masked_phase1 = true})},
       config},
      {"threshold-16 crs",
       {TransposeImage::kCrs, kernels::crs_transpose_source(64, {.short_row_threshold = 16})},
       config},
      {"scalar crs", {TransposeImage::kCrs, kernels::scalar_crs_transpose_source()}, config},
  };
  Rng rng(23);
  const Coo matrix = testing::random_coo(300, 260, 2400, rng);
  for (const auto& variant : variants) {
    SCOPED_TRACE(variant.name);
    const std::string expected =
        stats_json(run_directly(variant.program, matrix, variant.config));
    const kernels::TransposeRun timed = kernels::simulate_transpose(
        variant.program, matrix, variant.config, false, false, nullptr);
    EXPECT_EQ(stats_json(timed.stats), expected);
    const kernels::TransposeRun verified = kernels::simulate_transpose(
        variant.program, matrix, variant.config, true, false, nullptr);
    EXPECT_TRUE(verified.correct);
    EXPECT_EQ(stats_json(verified.stats), expected);
  }
}

TEST(TransposeSim, CacheStoresMissesAndReplaysHits) {
  const testing::TempDir dir("transpose_sim_replay");
  vsim::SimCache cache(dir.str());
  const Coo matrix = seeded_matrix();
  const vsim::MachineConfig config;
  for (const auto& [name, program] : paper_programs(config)) {
    SCOPED_TRACE(name);
    const vsim::SimCache::Stats before = cache.stats();
    const kernels::TransposeRun first =
        kernels::simulate_transpose(program, matrix, config, false, true, &cache);
    vsim::SimCache::Stats now = cache.stats();
    EXPECT_EQ(now.misses, before.misses + 1);
    EXPECT_EQ(now.stores, before.stores + 1);

    const kernels::TransposeRun replayed =
        kernels::simulate_transpose(program, matrix, config, false, true, &cache);
    now = cache.stats();
    EXPECT_EQ(now.hits, before.hits + 1);
    EXPECT_EQ(now.stores, before.stores + 1);
    EXPECT_EQ(stats_json(replayed.stats), stats_json(first.stats));
    EXPECT_EQ(replayed.profile_json, first.profile_json);
    EXPECT_FALSE(replayed.profile_json.empty());

    // The stored run was not verified: a verifying call misses, runs the
    // check and upgrades the entry, which the next verifying call replays.
    const kernels::TransposeRun verified =
        kernels::simulate_transpose(program, matrix, config, true, true, &cache);
    now = cache.stats();
    EXPECT_EQ(now.misses, before.misses + 2);
    EXPECT_EQ(now.stores, before.stores + 2);
    EXPECT_TRUE(verified.correct);
    EXPECT_EQ(stats_json(verified.stats), stats_json(first.stats));
    const kernels::TransposeRun reverified =
        kernels::simulate_transpose(program, matrix, config, true, true, &cache);
    now = cache.stats();
    EXPECT_EQ(now.hits, before.hits + 2);
    EXPECT_EQ(now.stores, before.stores + 2);
    EXPECT_EQ(reverified.profile_json, first.profile_json);
  }
  EXPECT_EQ(files_in(dir).size(), 2u);

  // Another machine is another key: a second file for each kernel.
  vsim::MachineConfig narrow = config;
  narrow.stm.bandwidth = 2;
  for (const auto& [name, program] : paper_programs(narrow)) {
    const kernels::TransposeRun run =
        kernels::simulate_transpose(program, matrix, narrow, false, false, &cache);
    EXPECT_EQ(stats_json(run.stats), stats_json(run_directly(program, matrix, narrow)));
  }
  EXPECT_EQ(files_in(dir).size(), 4u);
}

TEST(TransposeSim, KeysAreTheOnesEarlierCacheDirectoriesHold) {
  // The keys cache directories written by earlier builds hold: a change
  // to the key derivation makes every existing directory miss.
  const testing::TempDir dir("transpose_sim_keys");
  vsim::SimCache cache(dir.str());
  const Coo matrix = seeded_matrix();
  const vsim::MachineConfig config;
  EXPECT_EQ(kernels::simulate_transpose(kernels::hism_transpose_program(), matrix, config, false,
                                        false, &cache)
                .stats.cycles,
            1250u);
  EXPECT_EQ(files_in(dir), std::set<std::string>{"37d99dea2e49ef823f3fbcdb828e6923.json"});
  EXPECT_EQ(kernels::simulate_transpose(kernels::crs_transpose_program(config.section), matrix,
                                        config, false, false, &cache)
                .stats.cycles,
            28803u);
  EXPECT_EQ(files_in(dir), (std::set<std::string>{"37d99dea2e49ef823f3fbcdb828e6923.json",
                                                "49cbb39714bba88c57051a5a00867417.json"}));
}

TEST(TransposeSim, ConcurrentCallsOnOneKeyAgreeAndLeaveOneFile) {
  const testing::TempDir dir("transpose_sim_threads");
  vsim::SimCache cache(dir.str());
  const Coo matrix = seeded_matrix();
  const vsim::MachineConfig config;
  std::vector<kernels::TransposeRun> runs(4);
  std::vector<std::thread> threads;
  for (usize t = 0; t < runs.size(); ++t) {
    threads.emplace_back([&, t] {
      runs[t] = kernels::simulate_transpose(kernels::hism_transpose_program(), matrix, config,
                                            false, true, &cache);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const kernels::TransposeRun& run : runs) {
    EXPECT_EQ(stats_json(run.stats), stats_json(runs.front().stats));
    EXPECT_EQ(run.profile_json, runs.front().profile_json);
  }
  EXPECT_EQ(files_in(dir).size(), 1u);
}

}  // namespace
}  // namespace smtu
