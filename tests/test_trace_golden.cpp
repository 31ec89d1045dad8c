// Golden digests of the execution trace's renderings.
//
// Each digest is a SimHash over the three things an ExecutionTrace writes —
// write_chrome_trace, print_table and print_timeline — for one traced run,
// plus write_profile_json where a profiler rides along. The runs cover
// every unit and reporting path of the machine:
//   * the docs/TRACE.md demo (examples/programs/block_transpose.s staging
//     its own 16-entry block: an STM fill and drain, 212 instructions);
//   * the HiSM and CRS transposes of a seeded 100 x 100 matrix (the CRS
//     run on transpose_machine, so its scalar runs are observed);
//   * a short program with a taken branch, a chained vector pair and a
//     `barrier`, alone and as core 0 of a two-core system whose barrier
//     waits for the slower core, with both observers attached;
//   * the HiSM transpose into an 8-event trace, so the renderings carry
//     the dropped-event footers.
//
// The values were recorded on the interpreter that still built a separate
// trace event and profile sample for each instruction. A digest moves with
// any traced cycle, unit track, event count or rendered byte; when a change
// moves it on purpose, the failure prints the new digest to paste in.
// SMTU_EXAMPLES_DIR is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "formats/csr.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/staging.hpp"
#include "support/json.hpp"
#include "testing.hpp"
#include "vsim/assembler.hpp"
#include "vsim/json_export.hpp"
#include "vsim/machine.hpp"
#include "vsim/profiler.hpp"
#include "vsim/sim_cache.hpp"
#include "vsim/system.hpp"
#include "vsim/trace.hpp"

namespace smtu {
namespace {

void add_trace(vsim::SimHash& digest, const vsim::ExecutionTrace& trace,
               const std::string& process_name) {
  std::ostringstream chrome;
  vsim::write_chrome_trace(chrome, trace, process_name);
  digest.update(chrome.str());
  std::ostringstream table;
  trace.print_table(table);
  digest.update(table.str());
  std::ostringstream timeline;
  trace.print_timeline(timeline);
  digest.update(timeline.str());
}

void add_profile(vsim::SimHash& digest, const vsim::PerfCounters& profile) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    vsim::write_profile_json(json, profile);
  }
  digest.update(out.str());
}

void expect_digest(const vsim::SimHash& digest, const char* golden) {
  EXPECT_EQ(digest.hex(), golden)
      << "the traced output changed; if that is intended, the new digest is the first value";
}

Coo seeded_matrix() {
  Rng rng(22);
  return testing::random_coo(100, 100, 700, rng);
}

// A taken branch, a chained v_ld -> v_addi pair, and a barrier ahead of
// the store. r1 sets the loop count, so SPMD cores can arrive apart.
constexpr const char* kBranchChainBarrier = R"(
    li    r2, 0x100
loop:
    addi  r1, r1, -1
    bne   r1, r0, loop
    li    r3, 16
    ssvl  r3
    v_ld  vr1, (r2)
    v_addi vr2, vr1, 1
    barrier
    v_st  vr2, 0x400(r2)
    halt
)";

TEST(TraceGolden, BlockTransposeDemo) {
  std::ifstream in(std::string(SMTU_EXAMPLES_DIR) + "/block_transpose.s");
  ASSERT_TRUE(in) << "cannot read block_transpose.s";
  std::ostringstream source;
  source << in.rdbuf();
  const vsim::Program program = vsim::assemble(source.str());

  // vsim_run's setup for the docs/TRACE.md demo command line.
  vsim::Machine machine{vsim::MachineConfig{}};
  machine.set_sreg(1, 4096);
  machine.set_sreg(2, 16);
  machine.set_sreg(3, 8192);
  machine.set_sreg(7, 1);
  machine.set_sreg(vsim::kRegSp, 0x10000);
  machine.memory().ensure(0, 1 << 20);
  vsim::ExecutionTrace trace;
  machine.attach_trace(&trace);
  const vsim::RunStats stats = machine.run(program, program.label("main"));
  EXPECT_EQ(stats.instructions, 212u);
  EXPECT_EQ(stats.stm_blocks, 1u);
  EXPECT_EQ(trace.events().size(), stats.instructions);

  vsim::SimHash digest;
  add_trace(digest, trace, "block_transpose.s");
  expect_digest(digest, "8b877dbb9a639922a5d94ef845ffef84");
}

TEST(TraceGolden, HismTransposeOfASeededMatrix) {
  const vsim::MachineConfig config;
  const kernels::HismStage stage = testing::hism_stage(seeded_matrix(), config.section);
  vsim::ExecutionTrace trace(usize{1} << 20);
  const kernels::HismTransposeResult result =
      kernels::run_hism_transpose(stage, config, {}, &trace);
  EXPECT_EQ(trace.events().size(), result.stats.instructions);
  EXPECT_EQ(trace.dropped(), 0u);

  vsim::SimHash digest;
  add_trace(digest, trace, "hism");
  expect_digest(digest, "79e785497acdae3215d4f6472e811708");
}

TEST(TraceGolden, CrsTransposeOfASeededMatrix) {
  const vsim::MachineConfig config;
  const kernels::CrsStage stage = testing::crs_stage(seeded_matrix());
  vsim::Machine machine = kernels::transpose_machine(stage, config);
  vsim::ExecutionTrace trace(usize{1} << 20);
  machine.attach_trace(&trace);
  const vsim::RunStats stats =
      machine.run(vsim::assemble(kernels::crs_transpose_source(config.section)));
  EXPECT_EQ(trace.events().size(), stats.instructions);
  EXPECT_EQ(trace.dropped(), 0u);

  vsim::SimHash digest;
  add_trace(digest, trace, "crs");
  expect_digest(digest, "bb4a693c4d14d832c17a3536c209e71b");
}

TEST(TraceGolden, BranchChainAndBarrierWithBothObservers) {
  const vsim::Program program = vsim::assemble(kBranchChainBarrier);
  vsim::SimHash digest;
  {
    // Alone: the barrier releases the moment the core arrives.
    vsim::Machine machine{vsim::MachineConfig{}};
    machine.memory().ensure(0, 1 << 12);
    machine.set_sreg(1, 3);
    vsim::ExecutionTrace trace;
    vsim::PerfCounters profile;
    machine.attach_trace(&trace);
    machine.attach_profiler(&profile);
    const vsim::RunStats stats = machine.run(program);
    EXPECT_EQ(trace.events().size(), stats.instructions);
    add_trace(digest, trace, "alone");
    add_profile(digest, profile);
  }
  {
    // Core 0 of two: core 1 loops longer, so core 0's barrier waits. Its
    // trace interval runs from issue to release; its profiler sample
    // starts at the release.
    vsim::SystemConfig config;
    config.cores = 2;
    vsim::MultiCoreSystem system(config);
    system.memory().ensure(0, 1 << 12);
    system.core(0).set_sreg(1, 3);
    system.core(1).set_sreg(1, 40);
    vsim::ExecutionTrace trace;
    system.core(0).attach_trace(&trace);
    std::vector<vsim::PerfCounters> profiles;
    system.attach_profilers(&profiles);
    const vsim::SystemRunStats stats = system.run(program);
    EXPECT_EQ(stats.barriers, 1u);
    EXPECT_EQ(trace.events().size(), stats.core_stats[0].instructions);
    EXPECT_GT(profiles[0].stall_cycles()[static_cast<usize>(vsim::StallReason::kBarrierWait)],
              0u);
    add_trace(digest, trace, "core0");
    add_profile(digest, profiles[0]);
    add_profile(digest, profiles[1]);
  }
  expect_digest(digest, "67f84523ea561f4255b6d668203a9a0b");
}

TEST(TraceGolden, TruncatedHismTrace) {
  const vsim::MachineConfig config;
  const kernels::HismStage stage = testing::hism_stage(seeded_matrix(), config.section);
  vsim::ExecutionTrace trace(8);
  const kernels::HismTransposeResult result =
      kernels::run_hism_transpose(stage, config, {}, &trace);
  EXPECT_EQ(trace.events().size(), 8u);
  EXPECT_EQ(trace.dropped(), result.stats.instructions - 8);

  vsim::SimHash digest;
  add_trace(digest, trace, "hism");
  expect_digest(digest, "fc33028308db8678be03e1cd441aa592");
}

}  // namespace
}  // namespace smtu
