// Straight-line scalar runs (DecodedInst::run_len): Machine::run executes
// each as one dispatch with the issue state in locals, and skips the
// observer checks when no profiler, trace sink or enable_trace allowance is
// attached. Every path must simulate the same machine: a run with
// observers, one without, and step mode (one instruction per step(), as
// MultiCoreSystem drives it) give the same statistics, registers and
// memory, and the instruction budget aborts at the same instruction
// whether or not it falls inside a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "formats/csr.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/layout.hpp"
#include "kernels/staging.hpp"
#include "suite/dsab.hpp"
#include "support/json.hpp"
#include "vsim/assembler.hpp"
#include "vsim/json_export.hpp"
#include "vsim/machine.hpp"
#include "vsim/profiler.hpp"
#include "vsim/trace.hpp"

namespace smtu {
namespace {

std::string stats_json(const vsim::RunStats& stats) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    vsim::write_run_stats_json(json, stats);
  }
  return out.str();
}

enum class Observer { kNone, kProfiler, kTrace };

// What one run leaves behind.
struct Outcome {
  vsim::RunStats stats;
  Coo result;
  std::vector<u8> memory;
  u64 observed_instructions = 0;  // profiler samples or trace events
};

void expect_same(const Outcome& plain, const Outcome& observed) {
  EXPECT_EQ(stats_json(plain.stats), stats_json(observed.stats));
  EXPECT_TRUE(structurally_equal(plain.result, observed.result));
  EXPECT_TRUE(plain.memory == observed.memory);
  // The observer saw every instruction: none was skipped inside a run.
  EXPECT_EQ(observed.observed_instructions, observed.stats.instructions);
}

// Runs `program` on `machine` with the given observer attached.
Outcome run_observed(vsim::Machine& machine, const vsim::Program& program, Observer observer) {
  vsim::PerfCounters profile;
  vsim::ExecutionTrace trace;
  if (observer == Observer::kProfiler) machine.attach_profiler(&profile);
  if (observer == Observer::kTrace) machine.attach_trace(&trace);
  Outcome outcome;
  outcome.stats = machine.run(program);
  if (observer == Observer::kProfiler) {
    for (const vsim::PerfCounters::OpCounters& op : profile.ops()) {
      outcome.observed_instructions += op.issued;
    }
  }
  if (observer == Observer::kTrace) {
    outcome.observed_instructions = trace.events().size() + trace.dropped();
  }
  const std::span<const u8> memory = machine.memory().raw();
  outcome.memory.assign(memory.begin(), memory.end());
  return outcome;
}

Outcome run_crs(const kernels::CrsStage& stage, const vsim::Program& program,
                const vsim::MachineConfig& config, Observer observer) {
  vsim::Machine machine = kernels::transpose_machine(stage, config);
  Outcome outcome = run_observed(machine, program, observer);
  outcome.result = kernels::read_back_crs_transpose(machine.memory(), stage.image);
  return outcome;
}

Outcome run_hism(const kernels::HismStage& stage, const vsim::Program& program,
                 const vsim::MachineConfig& config, Observer observer) {
  vsim::Machine machine = kernels::transpose_machine(stage, config);
  Outcome outcome = run_observed(machine, program, observer);
  outcome.result = kernels::read_back_hism(machine, stage.image, /*swap_dims=*/true).to_coo();
  return outcome;
}

// The 30 D-SAB matrices at scale 0.05 (the summary benchmark's inputs):
// the profiler and the trace take the observed runs, the bare run the
// unobserved ones, and all three must agree.
TEST(ScalarExecRuns, ObserversLeaveTheSuiteRunsUnchanged) {
  const vsim::MachineConfig config;
  const vsim::Program crs = vsim::assemble(kernels::crs_transpose_source(config.section));
  const vsim::Program hism = vsim::assemble(kernels::hism_transpose_source());
  for (const suite::SuiteMatrix& entry : suite::build_dsab_suite({.scale = 0.05})) {
    SCOPED_TRACE(entry.name);
    const kernels::CrsStage crs_stage = kernels::build_crs_stage(Csr::from_coo(entry.matrix));
    const Outcome crs_plain = run_crs(crs_stage, crs, config, Observer::kNone);
    expect_same(crs_plain, run_crs(crs_stage, crs, config, Observer::kProfiler));
    expect_same(crs_plain, run_crs(crs_stage, crs, config, Observer::kTrace));

    const kernels::HismStage hism_stage =
        kernels::build_hism_stage(HismMatrix::from_coo(entry.matrix, config.section));
    const Outcome hism_plain = run_hism(hism_stage, hism, config, Observer::kNone);
    expect_same(hism_plain, run_hism(hism_stage, hism, config, Observer::kProfiler));
    expect_same(hism_plain, run_hism(hism_stage, hism, config, Observer::kTrace));
  }
}

// Drives the current program one instruction per step() to halt.
vsim::RunStats step_to_halt(vsim::Machine& machine, const vsim::Program& program) {
  machine.begin_run(program);
  while (machine.step() != vsim::StepStatus::kHalted) {
  }
  return machine.finish_run();
}

void expect_same_machine(const vsim::Machine& a, const vsim::Machine& b) {
  for (u32 r = 0; r < vsim::kNumScalarRegs; ++r) EXPECT_EQ(a.sreg(r), b.sreg(r)) << "r" << r;
  EXPECT_TRUE(std::ranges::equal(a.memory().raw(), b.memory().raw()));
}

TEST(ScalarExecRuns, StepModeMatchesRunOnSuiteMatrices) {
  const vsim::MachineConfig config;
  const vsim::Program program = vsim::assemble(kernels::crs_transpose_source(config.section));
  const std::vector<suite::SuiteMatrix> matrices = suite::build_dsab_suite({.scale = 0.05});
  for (const usize index : {usize{0}, usize{7}, usize{15}, usize{29}}) {
    SCOPED_TRACE(matrices[index].name);
    const kernels::CrsStage stage =
        kernels::build_crs_stage(Csr::from_coo(matrices[index].matrix));
    vsim::Machine ran = kernels::transpose_machine(stage, config);
    vsim::Machine stepped = kernels::transpose_machine(stage, config);
    const vsim::RunStats run_stats = ran.run(program);
    EXPECT_EQ(stats_json(run_stats), stats_json(step_to_halt(stepped, program)));
    expect_same_machine(ran, stepped);
  }
}

// Every opcode a run may hold, in straight-line runs that end at each kind
// of branch and jump, against step mode, with and without a profiler.
TEST(ScalarExecRuns, EveryRunOpcodeMatchesStepMode) {
  const vsim::Program program = vsim::assemble(R"(
    li    r1, 7
    li    r2, 3
    mv    r3, r1
    add   r4, r1, r2
    sub   r5, r1, r2
    mul   r6, r1, r2
    and   r7, r1, r2
    or    r8, r1, r2
    xor   r9, r1, r2
    sll   r10, r1, r2
    srl   r11, r10, r2
    min   r12, r1, r2
    max   r13, r1, r2
    addi  r14, r1, -9
    muli  r15, r1, 5
    andi  r16, r1, 6
    slli  r17, r1, 4
    srli  r18, r17, 2
    li    r19, 0x3fc00000
    li    r20, 0x40200000
    fadd  r21, r19, r20
    fmul  r22, r19, r20
    li    r23, 0x1000
    sw    r22, (r23)
    sh    r5, 4(r23)
    sb    r6, 6(r23)
    lw    r24, (r23)
    lhu   r25, 4(r23)
    lbu   r26, 6(r23)
    amo_add r27, r2, 8(r23)
    amo_add r28, r2, 8(r23)
    li    r29, 100
    setvl r12, r29
    ssvl  r29
    nop
    beq   r1, r2, skip
    bne   r1, r2, taken_bne
    halt
taken_bne:
    addi  r13, r13, 1
    blt   r2, r1, taken_blt
    halt
taken_blt:
    addi  r13, r13, 1
    bge   r2, r1, skip
    jal   func
    addi  r13, r13, 1
skip:
    halt
func:
    addi  r3, r3, 1
    addi  r3, r3, 1
    jr    ra
)");
  for (const bool profiled : {false, true}) {
    SCOPED_TRACE(profiled ? "profiled" : "bare");
    vsim::Machine ran{vsim::MachineConfig{}};
    vsim::Machine stepped{vsim::MachineConfig{}};
    vsim::PerfCounters ran_profile;
    vsim::PerfCounters stepped_profile;
    if (profiled) {
      ran.attach_profiler(&ran_profile);
      stepped.attach_profiler(&stepped_profile);
    }
    const vsim::RunStats run_stats = ran.run(program);
    EXPECT_EQ(stats_json(run_stats), stats_json(step_to_halt(stepped, program)));
    expect_same_machine(ran, stepped);
    EXPECT_EQ(ran.sreg(3), 9u);    // 7 + the two increments in func
    EXPECT_EQ(ran.sreg(13), 10u);  // max(7, 3) + three increments
    EXPECT_EQ(ran.sreg(28), 3u);   // the second amo_add sees the first's add
    EXPECT_EQ(ran.sreg(29), 36u);  // ssvl takes vl = min(64, 100), leaving 36
    EXPECT_EQ(ran.vl(), 64u);
    if (profiled) {
      for (usize op = 0; op < vsim::kOpCount; ++op) {
        EXPECT_EQ(ran_profile.ops()[op].issued, stepped_profile.ops()[op].issued);
        EXPECT_EQ(ran_profile.ops()[op].stall_cycles, stepped_profile.ops()[op].stall_cycles);
      }
    }
  }
}

// li + three iterations of a four-instruction loop + halt: 14 instructions.
// The loop is one run; the instruction before it starts a run of five.
constexpr const char* kLoop = R"(
    li    r1, 3
loop:
    addi  r1, r1, -1
    addi  r2, r2, 1
    addi  r3, r3, 1
    bne   r1, r0, loop
    halt
)";
constexpr u64 kLoopInstructions = 14;

vsim::MachineConfig budget(u64 max_instructions) {
  vsim::MachineConfig config;
  config.max_instructions = max_instructions;
  return config;
}

TEST(ScalarExecRuns, BudgetAdmitsAProgramOfExactlyItsLength) {
  vsim::Machine machine(budget(kLoopInstructions));
  const vsim::RunStats stats = machine.run(vsim::assemble(kLoop));
  EXPECT_EQ(stats.instructions, kLoopInstructions);
  EXPECT_EQ(machine.sreg(2), 3u);
}

TEST(ScalarExecRunsDeathTest, BudgetOneShortAborts) {
  vsim::Machine machine(budget(kLoopInstructions - 1));
  EXPECT_DEATH(machine.run(vsim::assemble(kLoop)), "budget");
}

// A budget of 11 ends inside the last iteration's run: the abort comes
// before the 12th instruction (pc 3), so the last trace line is pc 2's,
// not the branch at the end of the run.
TEST(ScalarExecRunsDeathTest, BudgetInsideARunAbortsAtTheSameInstruction) {
  vsim::Machine machine(budget(11));
  machine.enable_trace(100);
  EXPECT_DEATH(machine.run(vsim::assemble(kLoop)),
               "\\[trace\\] pc=2 [^\n]*\nSMTU_CHECK failed[^\n]*\n[^\n]*\n  detail: instruction "
               "budget");
}

}  // namespace
}  // namespace smtu
