#include <gtest/gtest.h>

#include <sstream>

#include "vsim/assembler.hpp"
#include "vsim/machine.hpp"
#include "vsim/trace.hpp"

namespace smtu::vsim {
namespace {

TEST(Trace, RecordsOneEventPerInstruction) {
  Machine machine{MachineConfig{}};
  machine.memory().ensure(0, 1 << 12);
  ExecutionTrace trace;
  machine.attach_trace(&trace);
  const RunStats stats = machine.run(assemble(
      "li r1, 64\nssvl r1\nli r2, 0x100\nv_ld vr1, (r2)\nv_addi vr2, vr1, 1\nhalt\n"));
  EXPECT_EQ(trace.events().size(), stats.instructions);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Trace, UnitsAreClassified) {
  Machine machine{MachineConfig{}};
  machine.memory().ensure(0, 1 << 12);
  ExecutionTrace trace;
  machine.attach_trace(&trace);
  machine.run(assemble(
      "li r1, 8\nssvl r1\nli r2, 0x100\nicm\nv_ld vr1, (r2)\nv_addi vr2, vr1, 1\n"
      "v_iota vr3\n"  // distinct packed positions (rows 0..7, column 0)
      "v_stcr vr2, vr3\nhalt\n"));
  std::map<ExecUnit, int> counts;
  for (const InstRecord& e : trace.events()) counts[op_unit(e.op)]++;
  EXPECT_GE(counts[ExecUnit::kScalar], 3);
  EXPECT_EQ(counts[ExecUnit::kVMem], 1);
  EXPECT_EQ(counts[ExecUnit::kVAlu], 2);  // v_addi + v_iota
  EXPECT_EQ(counts[ExecUnit::kStm], 2);   // icm + v_stcr
}

TEST(Trace, TimesAreOrderedWithinEvents) {
  Machine machine{MachineConfig{}};
  machine.memory().ensure(0, 1 << 12);
  ExecutionTrace trace;
  machine.attach_trace(&trace);
  machine.run(assemble(
      "li r1, 64\nssvl r1\nli r2, 0x100\nv_ld vr1, (r2)\nv_st vr1, 0x400(r2)\nhalt\n"));
  for (const InstRecord& e : trace.events()) {
    EXPECT_LE(e.issue, e.start);
    EXPECT_LE(e.start, e.first);
    EXPECT_LE(e.first, e.last);
  }
}

TEST(Trace, ChainingVisibleInTheTrace) {
  // With chaining, the dependent store starts before the load completes.
  Machine machine{MachineConfig{}};
  machine.memory().ensure(0, 1 << 12);
  ExecutionTrace trace;
  machine.attach_trace(&trace);
  machine.run(assemble(
      "li r1, 64\nssvl r1\nli r2, 0x100\nv_ld vr1, (r2)\nv_st vr1, 0x400(r2)\nhalt\n"));
  const InstRecord* load = nullptr;
  const InstRecord* store = nullptr;
  for (const InstRecord& e : trace.events()) {
    if (e.op == Op::kVLd) load = &e;
    if (e.op == Op::kVSt) store = &e;
  }
  ASSERT_NE(load, nullptr);
  ASSERT_NE(store, nullptr);
  EXPECT_LT(store->start, load->last);  // overlap = chaining
  EXPECT_GE(store->start, load->first);
}

TEST(Trace, CapacityBoundsMemory) {
  Machine machine{MachineConfig{}};
  ExecutionTrace trace(8);
  machine.attach_trace(&trace);
  machine.run(assemble(
      "li r1, 20\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n"));
  EXPECT_EQ(trace.events().size(), 8u);
  EXPECT_GT(trace.dropped(), 0u);
}

TEST(Trace, ClearResets) {
  Machine machine{MachineConfig{}};
  ExecutionTrace trace;
  machine.attach_trace(&trace);
  machine.run(assemble("li r1, 1\nhalt\n"));
  EXPECT_FALSE(trace.events().empty());
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Trace, RenderersProduceReadableOutput) {
  Machine machine{MachineConfig{}};
  machine.memory().ensure(0, 1 << 12);
  ExecutionTrace trace;
  machine.attach_trace(&trace);
  machine.run(assemble(
      "li r1, 64\nssvl r1\nli r2, 0x100\nv_ld vr1, (r2)\nv_addi vr2, vr1, 1\nhalt\n"));

  std::ostringstream table;
  trace.print_table(table);
  EXPECT_NE(table.str().find("v_ld"), std::string::npos);
  EXPECT_NE(table.str().find("vmem"), std::string::npos);

  std::ostringstream timeline;
  trace.print_timeline(timeline);
  EXPECT_NE(timeline.str().find("M"), std::string::npos);  // vmem lane glyph
  EXPECT_NE(timeline.str().find("cycles 0 .."), std::string::npos);
}

TEST(Trace, DetachedMachineRecordsNothing) {
  Machine machine{MachineConfig{}};
  ExecutionTrace trace;
  machine.attach_trace(&trace);
  machine.attach_trace(nullptr);
  machine.run(assemble("li r1, 1\nhalt\n"));
  EXPECT_TRUE(trace.events().empty());
}

}  // namespace
}  // namespace smtu::vsim
