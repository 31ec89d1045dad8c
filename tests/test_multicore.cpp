// The multi-core system: N=1 bit-identity with the owning Machine, the
// sharded parallel HiSM transpose, the parallel CRS baseline, determinism,
// and per-core profiler conservation (docs/MULTICORE.md).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "formats/csr.hpp"
#include "kernels/crs_parallel.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/layout.hpp"
#include "kernels/shard.hpp"
#include "testing.hpp"
#include "vsim/assembler.hpp"
#include "vsim/profiler.hpp"
#include "vsim/system.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::make_coo;
using testing::random_coo;

vsim::SystemConfig system_config(u32 cores, u32 section = 64) {
  vsim::SystemConfig config;
  config.core.section = section;
  config.cores = cores;
  return config;
}

Coo test_matrix(u64 seed = 42) {
  Rng rng(seed);
  return random_coo(500, 300, 3000, rng);
}

// The adversarial shapes every multi-core transpose must survive: an empty
// matrix, a single row and a single column, one element, one full row
// across three block columns at s = 64, and one exactly full 64 x 64 block.
std::vector<Coo> adversarial_shapes() {
  Rng rng(17);
  std::vector<Coo> shapes = {Coo(5, 5), random_coo(1, 1000, 400, rng),
                             random_coo(1000, 1, 400, rng), make_coo(1, 1, {{0, 0, 3.0f}})};
  Coo full_row(130, 130);
  for (Index col = 0; col < 130; ++col) full_row.add(77, col, 1.0f + static_cast<float>(col));
  shapes.push_back(std::move(full_row));
  Coo full_block(64, 64);
  for (Index row = 0; row < 64; ++row) {
    for (Index col = 0; col < 64; ++col) {
      full_block.add(row, col, static_cast<float>(1 + row * 64 + col));
    }
  }
  shapes.push_back(std::move(full_block));
  return shapes;
}

std::string shape_name(const Coo& coo) {
  return std::to_string(coo.rows()) + "x" + std::to_string(coo.cols()) + "/" +
         std::to_string(coo.nnz());
}

// ---- N=1 degenerate case ---------------------------------------------------

TEST(MultiCoreSystem, SingleCoreBitIdenticalToOwningMachine) {
  // The identical HiSM transpose program, staged identically, run once on
  // the classic owning Machine and once on a 1-core system with the banked
  // memory model: every RunStats field must match bit for bit.
  const Coo coo = test_matrix();
  const vsim::MachineConfig config = system_config(1).core;
  const kernels::HismStage stage =
      kernels::build_hism_stage(HismMatrix::from_coo(coo, config.section));
  ASSERT_GE(stage.hism.num_levels(), 2u);
  const HismImage& image = stage.image;

  vsim::Machine machine(config);
  machine.memory().attach_base(stage.snapshot);
  machine.set_sreg(1, image.root_addr);
  machine.set_sreg(2, image.root_len);
  machine.set_sreg(3, image.levels - 1);
  machine.set_sreg(vsim::kRegSp, kernels::kStackTop);
  const auto program = vsim::assemble(kernels::hism_transpose_source());
  const vsim::RunStats single = machine.run(program);

  vsim::MultiCoreSystem system(system_config(1));
  system.memory().write_block(
      image.base, std::span(*stage.snapshot).subspan(image.base, image.end - image.base));
  system.core(0).set_sreg(1, image.root_addr);
  system.core(0).set_sreg(2, image.root_len);
  system.core(0).set_sreg(3, image.levels - 1);
  system.core(0).set_sreg(vsim::kRegSp, kernels::kStackTop);
  const vsim::SystemRunStats multi = system.run(program);

  ASSERT_EQ(multi.core_stats.size(), 1u);
  const vsim::RunStats& core = multi.core_stats[0];
  EXPECT_EQ(core.cycles, single.cycles);
  EXPECT_EQ(core.instructions, single.instructions);
  EXPECT_EQ(core.scalar_instructions, single.scalar_instructions);
  EXPECT_EQ(core.vector_instructions, single.vector_instructions);
  EXPECT_EQ(core.vector_elements, single.vector_elements);
  EXPECT_EQ(core.mem_contiguous_bytes, single.mem_contiguous_bytes);
  EXPECT_EQ(core.mem_indexed_elements, single.mem_indexed_elements);
  EXPECT_EQ(core.stm_blocks, single.stm_blocks);
  EXPECT_EQ(core.stm_write_cycles, single.stm_write_cycles);
  EXPECT_EQ(core.stm_read_cycles, single.stm_read_cycles);
  EXPECT_EQ(core.stm_elements, single.stm_elements);
  EXPECT_EQ(core.vmem_busy_cycles, single.vmem_busy_cycles);
  EXPECT_EQ(core.valu_busy_cycles, single.valu_busy_cycles);
  EXPECT_EQ(core.stm_busy_cycles, single.stm_busy_cycles);
  EXPECT_EQ(multi.cycles, single.cycles);

  // A lone core must never see bank contention: that is the invariant the
  // bit-identity rests on.
  EXPECT_EQ(multi.memory.contended_requests, 0u);
  EXPECT_EQ(multi.memory.contention_cycles, 0u);
  EXPECT_GT(multi.memory.requests, 0u);

  // And the transposed images must agree byte for byte over the image.
  const auto machine_raw = machine.memory().raw();
  const auto system_raw = system.memory().raw();
  ASSERT_GE(machine_raw.size(), image.end);
  ASSERT_GE(system_raw.size(), image.end);
  EXPECT_TRUE(std::equal(machine_raw.begin() + image.base, machine_raw.begin() + image.end,
                         system_raw.begin() + image.base));
}

// ---- barrier and amo_add primitives ---------------------------------------

TEST(MultiCoreSystem, LoneMachineBarrierReleasesImmediately) {
  const auto program = vsim::assemble(R"asm(
    li    r1, 7
    barrier
    addi  r1, r1, 1
    halt
)asm");
  vsim::Machine machine{vsim::MachineConfig{}};
  const vsim::RunStats stats = machine.run(program);
  EXPECT_EQ(machine.sreg(1), 8u);
  EXPECT_GT(stats.cycles, 0u);
}

TEST(MultiCoreSystem, AmoAddReturnsOldValueAndAccumulates) {
  const auto program = vsim::assemble(R"asm(
    li    r1, 0x1000
    li    r2, 5
    sw    r2, 0(r1)
    li    r3, 3
    amo_add r4, r3, 0(r1)
    amo_add r5, r3, 0(r1)
    halt
)asm");
  vsim::Machine machine{vsim::MachineConfig{}};
  machine.run(program);
  EXPECT_EQ(machine.sreg(4), 5u);
  EXPECT_EQ(machine.sreg(5), 8u);
  EXPECT_EQ(machine.memory().read_u32(0x1000), 11u);
}

TEST(MultiCoreSystem, BarrierSynchronizesUnevenCores) {
  // Core 0 runs a long scalar chain before its barrier; core 1 arrives
  // almost immediately and must wait. Both resume at the same release.
  const auto program = vsim::assemble(R"asm(
    li    r2, 0
    beq   r1, r0, rendezvous
spin:
    addi  r2, r2, 1
    bne   r2, r1, spin
rendezvous:
    barrier
    halt
)asm");
  vsim::SystemConfig config = system_config(2);
  vsim::MultiCoreSystem system(config);
  system.core(0).set_sreg(1, 200);  // 200 spin iterations
  system.core(1).set_sreg(1, 0);

  std::vector<vsim::PerfCounters> profilers(2);
  system.attach_profiler(0, &profilers[0]);
  system.attach_profiler(1, &profilers[1]);
  const vsim::SystemRunStats stats = system.run(program);

  EXPECT_EQ(stats.barriers, 1u);
  EXPECT_EQ(stats.core_stats[0].cycles, stats.core_stats[1].cycles);
  // The idle core's wait is charged to the barrier_wait bucket.
  const u64 wait1 =
      profilers[1].stall_cycles()[static_cast<usize>(vsim::StallReason::kBarrierWait)];
  EXPECT_GT(wait1, 0u);
}

// ---- balanced work split ---------------------------------------------------

// The greedy form the SPMD kernels each wrote before balanced_cuts: part p
// ends once the running work reaches (p+1)/parts of the total.
std::vector<u64> greedy_cuts(const std::vector<u32>& work, u32 parts) {
  u64 total = 0;
  for (const u32 w : work) total += w;
  std::vector<u64> cuts(parts + 1, 0);
  cuts[parts] = work.size();
  u64 acc = 0;
  u64 item = 0;
  for (u32 p = 0; p + 1 < parts; ++p) {
    while (item < work.size() && acc < total * (p + 1) / parts) acc += work[item++];
    cuts[p + 1] = item;
  }
  return cuts;
}

std::vector<u32> prefix_of(const std::vector<u32>& work) {
  std::vector<u32> prefix(work.size() + 1, 0);
  for (usize i = 0; i < work.size(); ++i) prefix[i + 1] = prefix[i] + work[i];
  return prefix;
}

TEST(BalancedCuts, CutsWhereThePrefixReachesEachShare) {
  // Work 4, 0, 0, 4, 4, 4 over 4 parts: the prefix reaches the shares 4, 8
  // and 12 at indices 1, 4 and 5, so the zero-work items 1 and 2 join
  // item 3's part.
  EXPECT_EQ(kernels::balanced_cuts(prefix_of({4, 0, 0, 4, 4, 4}), 4),
            (std::vector<u64>{0, 1, 4, 5, 6}));
  // One part takes everything.
  EXPECT_EQ(kernels::balanced_cuts(prefix_of({3, 1, 2}), 1), (std::vector<u64>{0, 3}));
}

TEST(BalancedCuts, MorePartsThanItemsLeavesEmptyParts) {
  EXPECT_EQ(kernels::balanced_cuts(prefix_of({5, 5}), 4), (std::vector<u64>{0, 1, 1, 2, 2}));
  // All-zero work: every cut lands at 0 and the last part takes the items.
  EXPECT_EQ(kernels::balanced_cuts(prefix_of({0, 0, 0}), 3), (std::vector<u64>{0, 0, 0, 3}));
}

TEST(BalancedCuts, EmptyInputGivesEmptyParts) {
  EXPECT_EQ(kernels::balanced_cuts(prefix_of({}), 3), (std::vector<u64>{0, 0, 0, 0}));
}

TEST(BalancedCuts, MatchesTheGreedySplit) {
  Rng rng(27);
  for (int i = 0; i < 5000; ++i) {
    std::vector<u32> work(1 + rng.below(40));
    for (u32& w : work) w = rng.chance(0.3) ? 0 : static_cast<u32>(rng.below(50));
    const u32 parts = static_cast<u32>(1 + rng.below(9));
    ASSERT_EQ(kernels::balanced_cuts(prefix_of(work), parts), greedy_cuts(work, parts))
        << "case " << i;
  }
}

// ---- sharded HiSM transpose ------------------------------------------------

TEST(ShardedHismTranspose, MatchesReferenceAtAllCoreCounts) {
  std::vector<Coo> inputs = adversarial_shapes();
  inputs.push_back(test_matrix());
  for (const Coo& coo : inputs) {
    for (const u32 cores : {1u, 2u, 4u, 8u}) {
      const auto result = kernels::run_sharded_hism_transpose(coo, system_config(cores));
      EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()))
          << shape_name(coo) << " on " << cores << " cores";
      EXPECT_GT(result.stats.cycles, 0u);
      EXPECT_EQ(result.stats.barriers, 2u);
    }
  }
}

TEST(ShardedHismTranspose, SmallSectionDeepHierarchy) {
  Rng rng(7);
  const Coo coo = random_coo(100, 90, 600, rng);
  for (const u32 cores : {2u, 4u}) {
    const auto result =
        kernels::run_sharded_hism_transpose(coo, system_config(cores, /*section=*/8));
    EXPECT_TRUE(coo_equal(result.transposed, coo.transposed())) << cores << " cores";
  }
}

TEST(ShardedHismTranspose, MoreCoresThanBlockRows) {
  // 20 rows at section 64 leaves a single top-level block row: every core
  // but one gets an empty panel and only rides the barriers.
  Rng rng(9);
  const Coo coo = random_coo(20, 20, 60, rng);
  const auto result = kernels::run_sharded_hism_transpose(coo, system_config(4));
  EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()));
}

TEST(ShardedHismTranspose, MultiCoreBeatsSingleCore) {
  const Coo coo = test_matrix(11);
  const Cycle one = kernels::run_sharded_hism_transpose(coo, system_config(1)).stats.cycles;
  const Cycle four = kernels::run_sharded_hism_transpose(coo, system_config(4)).stats.cycles;
  EXPECT_LT(four, one);
}

TEST(ShardedHismTranspose, DeterministicAcrossRuns) {
  const Coo coo = test_matrix(5);
  const vsim::SystemRunStats a = kernels::run_sharded_hism_transpose(coo, system_config(4)).stats;
  const vsim::SystemRunStats b = kernels::run_sharded_hism_transpose(coo, system_config(4)).stats;
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.memory.contention_cycles, b.memory.contention_cycles);
  ASSERT_EQ(a.core_stats.size(), b.core_stats.size());
  for (usize c = 0; c < a.core_stats.size(); ++c) {
    EXPECT_EQ(a.core_stats[c].cycles, b.core_stats[c].cycles) << "core " << c;
    EXPECT_EQ(a.core_stats[c].instructions, b.core_stats[c].instructions) << "core " << c;
  }
}

TEST(ShardedHismTranspose, PerCoreProfilerConservation) {
  // Each core's PerfCounters must attribute every one of its cycles
  // (enforced by SMTU_CHECK in end_run; this exercises it with barriers
  // and bank contention in play) and agree with the reported core stats.
  const Coo coo = test_matrix(3);
  std::vector<vsim::PerfCounters> profilers;
  const vsim::SystemRunStats stats =
      kernels::run_sharded_hism_transpose(coo, system_config(4), &profilers).stats;
  ASSERT_EQ(profilers.size(), 4u);
  for (u32 c = 0; c < 4; ++c) {
    EXPECT_EQ(profilers[c].total_cycles(), stats.core_stats[c].cycles) << "core " << c;
    EXPECT_EQ(profilers[c].attributed_cycles(), profilers[c].total_cycles()) << "core " << c;
  }
}

// ---- parallel CRS baseline -------------------------------------------------

TEST(ParallelCrsTranspose, MatchesReferenceAtAllCoreCounts) {
  const Coo coo = test_matrix();
  const Csr csr = Csr::from_coo(coo);
  for (const u32 cores : {1u, 2u, 4u, 8u}) {
    const auto result = kernels::run_parallel_crs_transpose(csr, system_config(cores));
    EXPECT_TRUE(coo_equal(result.transposed, coo.transposed())) << cores << " cores";
    EXPECT_EQ(result.stats.barriers, 5u);
  }
}

TEST(ParallelCrsTranspose, DeterministicAcrossRuns) {
  const Coo coo = test_matrix(13);
  const Csr csr = Csr::from_coo(coo);
  const vsim::SystemRunStats a = kernels::run_parallel_crs_transpose(csr, system_config(8)).stats;
  const vsim::SystemRunStats b = kernels::run_parallel_crs_transpose(csr, system_config(8)).stats;
  EXPECT_EQ(a.cycles, b.cycles);
  for (usize c = 0; c < a.core_stats.size(); ++c) {
    EXPECT_EQ(a.core_stats[c].cycles, b.core_stats[c].cycles) << "core " << c;
  }
}

TEST(ParallelCrsTranspose, RaggedShapes) {
  Rng rng(21);
  std::vector<Coo> inputs = adversarial_shapes();
  for (const auto& [rows, cols, nnz] : {std::tuple<Index, Index, usize>{1, 500, 400},
                                        {500, 1, 400},
                                        {37, 211, 900}}) {
    inputs.push_back(random_coo(rows, cols, nnz, rng));
  }
  for (const Coo& coo : inputs) {
    const Csr csr = Csr::from_coo(coo);
    for (const u32 cores : {1u, 2u, 4u, 8u}) {
      const auto result = kernels::run_parallel_crs_transpose(csr, system_config(cores));
      EXPECT_TRUE(coo_equal(result.transposed, coo.transposed()))
          << shape_name(coo) << " on " << cores << " cores";
    }
  }
}

}  // namespace
}  // namespace smtu
