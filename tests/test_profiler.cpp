// Cycle-attribution profiler tests (vsim/profiler.hpp, docs/PROFILING.md).
//
// The load-bearing property is conservation: the stall + busy buckets sum
// to the run's cycle count *exactly*, for every program. Each stall-reason
// test below builds a tiny handwritten program whose critical path runs
// through one specific constraint and checks both the conservation
// invariant and that the targeted bucket is charged.
#include <gtest/gtest.h>

#include <sstream>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "kernels/crs_transpose.hpp"
#include "support/json.hpp"
#include "vsim/assembler.hpp"
#include "vsim/json_export.hpp"
#include "vsim/machine.hpp"
#include "vsim/profiler.hpp"

namespace smtu::vsim {
namespace {

struct ProfiledRun {
  PerfCounters profile;
  RunStats stats;
};

ProfiledRun run_profiled(const std::string& source, const MachineConfig& config = {}) {
  Machine machine(config);
  machine.memory().ensure(0, 1 << 20);
  ProfiledRun result;
  machine.attach_profiler(&result.profile);
  result.stats = machine.run(assemble(source));
  return result;
}

u64 bucket_sum(const PerfCounters& profile) {
  u64 sum = 0;
  for (const u64 cycles : profile.stall_cycles()) sum += cycles;
  for (const u64 cycles : profile.busy_cycles()) sum += cycles;
  return sum;
}

u64 stall(const ProfiledRun& run, StallReason reason) {
  return run.profile.stall_cycles()[static_cast<usize>(reason)];
}

u64 busy(const ProfiledRun& run, BusyKind kind) {
  return run.profile.busy_cycles()[static_cast<usize>(kind)];
}

void expect_conserved(const ProfiledRun& run) {
  EXPECT_EQ(run.profile.total_cycles(), run.stats.cycles);
  EXPECT_EQ(run.profile.attributed_cycles(), run.stats.cycles);
  EXPECT_EQ(bucket_sum(run.profile), run.stats.cycles);
}

// ---- conservation per stall scenario ---------------------------------------

TEST(Profiler, ScalarFetchAfterTakenBranches) {
  const auto run = run_profiled(
      "li r1, 16\n"
      "loop:\n"
      "addi r1, r1, -1\n"
      "bne r1, r0, loop\n"
      "halt\n");
  expect_conserved(run);
  EXPECT_GT(stall(run, StallReason::kScalarFetch), 0u);
}

TEST(Profiler, RawHazardOnScalarLoadUse) {
  const auto run = run_profiled(
      "li r1, 0x1000\n"
      "sw r1, (r1)\n"
      "lw r2, (r1)\n"
      "addi r3, r2, 1\n"  // uses the load result straight away
      "halt\n");
  expect_conserved(run);
  EXPECT_GT(stall(run, StallReason::kRawHazard), 0u);
}

TEST(Profiler, MemPortContentionBetweenStreams) {
  const auto run = run_profiled(
      "li r1, 64\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "li r3, 0x2000\n"
      "v_ld vr1, (r2)\n"
      "v_ld vr2, (r3)\n"  // independent, but the memory pipe is occupied
      "halt\n");
  expect_conserved(run);
  EXPECT_GT(stall(run, StallReason::kMemPort), 0u);
  EXPECT_GT(busy(run, BusyKind::kVMemStream), 0u);
  EXPECT_EQ(busy(run, BusyKind::kVMemIndexed), 0u);
}

TEST(Profiler, IndexedSerializationChargedSeparately) {
  const auto run = run_profiled(
      "li r1, 64\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "li r3, 0x2000\n"
      "v_bcasti vr0, 0\n"
      "v_ldx vr1, (r2), vr0\n"  // 1 elem/cycle occupant
      "v_ld vr2, (r3)\n"        // queues behind the indexed access
      "halt\n");
  expect_conserved(run);
  EXPECT_GT(stall(run, StallReason::kMemIndexedSerial), 0u);
  EXPECT_GT(busy(run, BusyKind::kVMemIndexed), 0u);
}

TEST(Profiler, ChainingWaitOnProducerFirstElement) {
  // With few lanes the chained consumer outlasts the producer, so the
  // chain-in delay is on the critical path and must be charged.
  MachineConfig config;
  config.lanes = 2;
  const auto run = run_profiled(
      "li r1, 64\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "v_ld vr1, (r2)\n"
      "v_add vr2, vr1, vr1\n"  // chains in after the load's first element
      "halt\n",
      config);
  expect_conserved(run);
  EXPECT_GT(stall(run, StallReason::kChainingWait), 0u);
}

TEST(Profiler, RawHazardWithoutChaining) {
  MachineConfig config;
  config.chaining = false;
  const auto run = run_profiled(
      "li r1, 64\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "v_ld vr1, (r2)\n"
      "v_add vr2, vr1, vr1\n"  // must wait for the full load now
      "halt\n",
      config);
  expect_conserved(run);
  EXPECT_GT(stall(run, StallReason::kRawHazard), 0u);
  EXPECT_EQ(stall(run, StallReason::kChainingWait), 0u);
}

TEST(Profiler, VregBusyOnWriteAfterRead) {
  const auto run = run_profiled(
      "li r1, 64\n"
      "ssvl r1\n"
      "li r2, 0x1000\n"
      "li r3, 0x2000\n"
      "v_ld vr1, (r2)\n"
      "v_add vr2, vr1, vr1\n"  // long-lived reader of vr1
      "v_ld vr1, (r3)\n"       // must wait for the reader to finish
      "halt\n");
  expect_conserved(run);
  EXPECT_GT(stall(run, StallReason::kVregBusy), 0u);
}

TEST(Profiler, StmBusySerializesFillAndDrain) {
  const auto run = run_profiled(
      "li r1, 64\n"
      "ssvl r1\n"
      "icm\n"
      "v_iota vr2\n"
      "v_bcasti vr1, 7\n"
      "v_stcr vr1, vr2\n"  // fill the s x s memory
      "v_ldcc vr3, vr4\n"  // drain queues behind the fill
      "halt\n");
  expect_conserved(run);
  EXPECT_GT(stall(run, StallReason::kStmBusy), 0u);
  EXPECT_GT(busy(run, BusyKind::kStm), 0u);
}

TEST(Profiler, ValuBusyBetweenIndependentOps) {
  const auto run = run_profiled(
      "li r1, 64\n"
      "ssvl r1\n"
      "v_iota vr1\n"
      "v_add vr2, vr1, vr1\n"
      "v_add vr3, vr1, vr1\n"  // independent, but the vector ALU is taken
      "halt\n");
  expect_conserved(run);
  EXPECT_GT(stall(run, StallReason::kValuBusy), 0u);
  EXPECT_GT(busy(run, BusyKind::kVAlu), 0u);
}

// ---- accumulation and rollups ----------------------------------------------

TEST(Profiler, AccumulatesAcrossRunsOfTheSameProgram) {
  Machine machine{MachineConfig{}};
  machine.memory().ensure(0, 1 << 20);
  PerfCounters profile;
  machine.attach_profiler(&profile);
  const Program program = assemble("li r1, 8\nssvl r1\nv_iota vr1\nhalt\n");
  const Cycle first = machine.run(program).cycles;
  const Cycle second = machine.run(program).cycles;
  EXPECT_EQ(profile.runs(), 2u);
  EXPECT_EQ(profile.total_cycles(), first + second);
  EXPECT_EQ(profile.attributed_cycles(), first + second);
}

TEST(Profiler, LineAndRegionRollups) {
  const auto run = run_profiled(
      "li r1, 64\n"
      "ssvl r1\n"
      ";; profile: load\n"
      "li r2, 0x1000\n"
      "v_ld vr1, (r2)\n"
      ";; profile: compute\n"
      "v_add vr2, vr1, vr1\n"
      ";; profile: end\n"
      "halt\n");
  expect_conserved(run);

  const auto regions = run.profile.region_rollup();
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].name, "load");
  EXPECT_EQ(regions[1].name, "compute");
  EXPECT_EQ(regions[0].issued, 2u);
  EXPECT_EQ(regions[1].issued, 1u);

  const auto lines = run.profile.line_rollup();
  ASSERT_FALSE(lines.empty());
  u64 issued = 0;
  bool saw_vadd = false;
  for (const auto& line : lines) {
    issued += line.issued;
    if (line.text.find("v_add") != std::string::npos) {
      saw_vadd = true;
      EXPECT_EQ(line.region, "compute");
    }
  }
  EXPECT_TRUE(saw_vadd);
  EXPECT_EQ(issued, 6u);  // every executed instruction shows up exactly once
}

TEST(Profiler, UnknownDirectiveRejected) {
  EXPECT_THROW(assemble(";; frobnicate\nhalt\n"), AssemblyError);
  EXPECT_THROW(assemble(";; profile:\nhalt\n"), AssemblyError);
}

TEST(Profiler, EmptyRegionsDropped) {
  const auto run = run_profiled(
      ";; profile: empty\n"
      ";; profile: real\n"
      "halt\n");
  const auto regions = run.profile.region_rollup();
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].name, "real");
}

// ---- JSON determinism -------------------------------------------------------

std::string profile_json_of(const std::string& source) {
  const auto run = run_profiled(source);
  std::ostringstream out;
  JsonWriter json(out);
  write_profile_json(json, run.profile);
  return out.str();
}

TEST(Profiler, JsonBitIdenticalAcrossIndependentRuns) {
  const std::string source =
      "li r1, 64\nssvl r1\nli r2, 0x1000\n"
      "v_ld vr1, (r2)\nv_add vr2, vr1, vr1\nhalt\n";
  EXPECT_EQ(profile_json_of(source), profile_json_of(source));
}

TEST(Profiler, SpeedscopeExportIsValidJson) {
  const auto run = run_profiled(
      ";; profile: hot\n"
      "li r1, 64\nssvl r1\nli r2, 0x1000\nv_ld vr1, (r2)\nhalt\n");
  std::ostringstream out;
  write_speedscope_profile(out, run.profile, "unit");
  std::string error;
  const std::optional<JsonValue> doc = parse_json(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->at("name").as_string(), "unit");
  EXPECT_FALSE(doc->at("shared").at("frames").items().empty());
  ASSERT_FALSE(doc->at("profiles").items().empty());
  const JsonValue& prof = doc->at("profiles").items()[0];
  EXPECT_EQ(prof.at("endValue").as_u64(), run.stats.cycles);
  u64 weight_sum = 0;
  for (const JsonValue& weight : prof.at("weights").items()) {
    weight_sum += weight.as_u64();
  }
  EXPECT_EQ(weight_sum, run.stats.cycles);
}

// ---- the paper's hot spot ---------------------------------------------------

// On a narrow banded matrix the CRS baseline's cycles concentrate in the
// vectorized indexed-memory permute loop — exactly the bottleneck the
// paper's STM removes (§I, §IV-B): short rows mean the per-row vector
// startup never amortizes and the 1-elem/cycle gather/scatter chain
// serializes phase 3. (At wide bands the O(nnz) scalar histogram of
// phase 1 takes over instead — also visible in the same tables.) The
// region/line rollups must point at the permute loop.
TEST(Profiler, CrsHotSpotIsTheIndexedPermuteLoop) {
  constexpr u32 kDim = 192;
  constexpr u32 kBand = 2;  // 5 nnz/row — above short_row_threshold, so
                            // every row takes the vector permute path
  Coo coo(kDim, kDim);
  for (u32 r = 0; r < kDim; ++r) {
    const u32 lo = r > kBand ? r - kBand : 0;
    const u32 hi = r + kBand < kDim - 1 ? r + kBand : kDim - 1;
    for (u32 c = lo; c <= hi; ++c) coo.add(r, c, 1.0 + r);
  }
  const kernels::CrsStage stage = kernels::build_crs_stage(Csr::from_coo(coo));

  PerfCounters profile;
  const vsim::MachineConfig config;
  kernels::run_crs_transpose(stage, config, {}, &profile);
  EXPECT_EQ(profile.attributed_cycles(), profile.total_cycles());

  // The permute loop is the dominant region of the whole kernel.
  const auto regions = profile.region_rollup();
  ASSERT_FALSE(regions.empty());
  const PerfCounters::RegionCounters* top_region = &regions.front();
  for (const auto& region : regions) {
    if (region.busy_cycles + region.stall_cycles >
        top_region->busy_cycles + top_region->stall_cycles) {
      top_region = &region;
    }
  }
  EXPECT_EQ(top_region->name, "phase3_permute");

  // The indexed pipe is the most-occupied vector memory resource: it holds
  // the port several times longer than the contiguous streams do.
  const auto& fus = profile.fus();
  EXPECT_GT(fus[static_cast<usize>(BusyKind::kVMemIndexed)].occupancy_cycles,
            fus[static_cast<usize>(BusyKind::kVMemStream)].occupancy_cycles);

  // Within the permute loop the hottest line is an indexed access — it
  // out-costs the contiguous slice loads sharing the loop.
  const auto lines = profile.line_rollup();
  ASSERT_FALSE(lines.empty());
  const PerfCounters::LineCounters* hottest_permute = nullptr;
  for (const auto& line : lines) {
    if (line.region != "phase3_permute") continue;
    if (hottest_permute == nullptr ||
        line.busy_cycles + line.stall_cycles >
            hottest_permute->busy_cycles + hottest_permute->stall_cycles) {
      hottest_permute = &line;
    }
  }
  ASSERT_NE(hottest_permute, nullptr);
  EXPECT_NE(hottest_permute->text.find("_idx"), std::string::npos)
      << "hottest permute line is not an indexed access: " << hottest_permute->text;

  // The serialized chain behind the 1-elem/cycle pipe is the top stall
  // reason for the run.
  const auto& stalls = profile.stall_cycles();
  const u64 chaining = stalls[static_cast<usize>(StallReason::kChainingWait)];
  for (usize reason = 0; reason < kStallReasonCount; ++reason) {
    if (reason == static_cast<usize>(StallReason::kChainingWait)) continue;
    EXPECT_GE(chaining, stalls[reason])
        << "stall bucket " << stall_reason_name(static_cast<StallReason>(reason));
  }
}

}  // namespace
}  // namespace smtu::vsim
