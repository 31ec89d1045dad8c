// The observability layer's C++ side: RunStats/MachineConfig JSON emission,
// the RunStats round trip, and the Chrome trace-event export — each
// validated by parsing the emitted text back with support/json.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "support/json.hpp"
#include "vsim/assembler.hpp"
#include "vsim/json_export.hpp"
#include "vsim/machine.hpp"
#include "vsim/trace.hpp"

namespace smtu {
namespace {

vsim::RunStats distinct_stats() {
  vsim::RunStats stats;
  u64 next = 101;
  stats.cycles = next++;
  stats.instructions = next++;
  stats.scalar_instructions = next++;
  stats.vector_instructions = next++;
  stats.vector_elements = next++;
  stats.mem_contiguous_bytes = next++;
  stats.mem_indexed_elements = next++;
  stats.stm_blocks = next++;
  stats.stm_write_cycles = next++;
  stats.stm_read_cycles = next++;
  stats.stm_elements = next++;
  stats.vmem_busy_cycles = next++;
  stats.valu_busy_cycles = next++;
  stats.stm_busy_cycles = next++;
  return stats;
}

std::string to_json(const vsim::RunStats& stats) {
  std::ostringstream out;
  JsonWriter json(out);
  vsim::write_run_stats_json(json, stats);
  EXPECT_TRUE(json.complete());
  return out.str();
}

TEST(RunStatsJson, RoundTripsEveryCounter) {
  const vsim::RunStats stats = distinct_stats();
  const auto doc = parse_json(to_json(stats));
  ASSERT_TRUE(doc.has_value());
  const auto back = vsim::run_stats_from_json(*doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->cycles, stats.cycles);
  EXPECT_EQ(back->instructions, stats.instructions);
  EXPECT_EQ(back->scalar_instructions, stats.scalar_instructions);
  EXPECT_EQ(back->vector_instructions, stats.vector_instructions);
  EXPECT_EQ(back->vector_elements, stats.vector_elements);
  EXPECT_EQ(back->mem_contiguous_bytes, stats.mem_contiguous_bytes);
  EXPECT_EQ(back->mem_indexed_elements, stats.mem_indexed_elements);
  EXPECT_EQ(back->stm_blocks, stats.stm_blocks);
  EXPECT_EQ(back->stm_write_cycles, stats.stm_write_cycles);
  EXPECT_EQ(back->stm_read_cycles, stats.stm_read_cycles);
  EXPECT_EQ(back->stm_elements, stats.stm_elements);
  EXPECT_EQ(back->vmem_busy_cycles, stats.vmem_busy_cycles);
  EXPECT_EQ(back->valu_busy_cycles, stats.valu_busy_cycles);
  EXPECT_EQ(back->stm_busy_cycles, stats.stm_busy_cycles);
}

// The counters document re-written with member `skip` left out and member
// `as_text` holding a string in place of its number.
std::string edited(const JsonValue& doc, usize skip, usize as_text) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  for (usize i = 0; i < doc.size(); ++i) {
    if (i == skip) continue;
    const JsonMember& member = doc.members()[i];
    json.key(member.key);
    if (i == as_text) {
      json.value("not a number");
    } else {
      json.value(member.value.as_u64());
    }
  }
  json.end_object();
  return out.str();
}

TEST(RunStatsJson, RejectsMissingOrNonNumericCounter) {
  const auto doc = parse_json(to_json(distinct_stats()));
  ASSERT_TRUE(doc.has_value());
  const usize none = doc->size();
  const auto reparsed = [](const std::string& text) {
    auto value = parse_json(text);
    EXPECT_TRUE(value.has_value()) << text;
    return value.has_value() ? std::move(*value) : JsonValue();
  };
  ASSERT_TRUE(vsim::run_stats_from_json(reparsed(edited(*doc, none, none))).has_value());

  // Drop one member at a time: every counter must be required.
  for (usize skip = 0; skip < doc->size(); ++skip) {
    EXPECT_FALSE(vsim::run_stats_from_json(reparsed(edited(*doc, skip, none))).has_value())
        << doc->members()[skip].key;
  }
  EXPECT_FALSE(vsim::run_stats_from_json(reparsed(edited(*doc, none, 0))).has_value());
  EXPECT_FALSE(vsim::run_stats_from_json(reparsed("3.0")).has_value());
}

TEST(MachineConfigJson, EmitsTimingKnobsAndStmBlock) {
  vsim::MachineConfig config;
  config.section = 32;
  config.stm.bandwidth = 8;
  std::ostringstream out;
  JsonWriter json(out);
  vsim::write_machine_config_json(json, config);
  ASSERT_TRUE(json.complete());

  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("section").as_u64(), 32u);
  EXPECT_EQ(doc->at("lanes").as_u64(), config.lanes);
  EXPECT_EQ(doc->at("chaining").as_bool(), config.chaining);
  EXPECT_EQ(doc->at("mem_startup").as_u64(), config.mem_startup);
  EXPECT_EQ(doc->at("stm").at("bandwidth").as_u64(), 8u);
  EXPECT_EQ(doc->at("stm").at("lines").as_u64(), config.stm.lines);
}

// A small program that exercises all four trace tracks: scalar setup, a
// contiguous vector load/store (vmem), a vector add (valu), and an STM
// fill/drain pair.
const char* kAllUnitsProgram = R"(
main:
    li    r1, 256
    li    r2, 8
    mv    r6, r2
    setvl r3, r2
    v_iota vr1
    v_add vr2, vr1, vr1
    v_st  vr2, (r1)
    v_ld  vr3, (r1)
    icm
    li    r4, 4096
    li    r5, 8192
    ssvl  r6
    v_ldb vr1, vr2, r4, r5
    v_stcr vr1, vr2
    v_ldcc vr4, vr5
    halt
)";

TEST(ChromeTrace, ExportsValidTraceEventDocument) {
  vsim::Machine machine(vsim::MachineConfig{});
  machine.memory().ensure(0, 1 << 16);
  // Stage unique positions so the s^2-block fill does not collide.
  for (u32 i = 0; i < 8; ++i) {
    machine.memory().write_u8(4096 + 2 * i, static_cast<u8>(i));
    machine.memory().write_u8(4096 + 2 * i + 1, static_cast<u8>(i));
    machine.memory().write_u32(8192 + 4 * i, i);
  }
  vsim::ExecutionTrace trace;
  machine.attach_trace(&trace);
  machine.run(vsim::assemble(kAllUnitsProgram));
  ASSERT_GT(trace.events().size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);

  std::ostringstream out;
  vsim::write_chrome_trace(out, trace, "unit-test");
  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value()) << out.str();
  EXPECT_EQ(doc->at("dropped").as_u64(), 0u);
  EXPECT_EQ(doc->at("displayTimeUnit").as_string(), "ns");

  const JsonValue& events = doc->at("traceEvents");
  ASSERT_TRUE(events.is_array());

  usize x_events = 0;
  std::set<std::string> thread_names;
  std::set<u64> x_tids;
  for (const JsonValue& event : events.items()) {
    const std::string_view phase = event.at("ph").as_string();
    EXPECT_EQ(event.at("pid").as_u64(), 1u);
    if (phase == "M") {
      if (event.at("name").as_string() == "process_name") {
        EXPECT_EQ(event.at("args").at("name").as_string(), "unit-test");
      } else if (event.at("name").as_string() == "thread_name") {
        thread_names.emplace(event.at("args").at("name").as_string());
      }
      continue;
    }
    ASSERT_EQ(phase, "X");
    ++x_events;
    x_tids.insert(event.at("tid").as_u64());
    EXPECT_GE(event.at("dur").as_u64(), 1u);
    const JsonValue& args = event.at("args");
    EXPECT_LE(args.at("issue").as_u64(), args.at("start").as_u64());
    EXPECT_LE(args.at("start").as_u64(), args.at("last").as_u64());
    EXPECT_EQ(event.at("ts").as_u64(), args.at("start").as_u64());
  }
  EXPECT_EQ(x_events, trace.events().size());
  EXPECT_EQ(thread_names, (std::set<std::string>{"scalar", "vmem", "valu", "stm"}));
  // The program touched every unit.
  EXPECT_EQ(x_tids, (std::set<u64>{0, 1, 2, 3}));
}

TEST(ChromeTrace, ReportsDroppedEvents) {
  vsim::ExecutionTrace trace(2);
  for (u32 i = 0; i < 5; ++i) {
    trace.record({.pc = i, .op = vsim::Op::kNop, .issue = i, .start = i, .first = i, .last = i});
  }
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.dropped(), 3u);

  std::ostringstream out;
  vsim::write_chrome_trace(out, trace);
  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->at("dropped").as_u64(), 3u);

  // The text renderers surface the same truncation.
  std::ostringstream table;
  trace.print_table(table);
  EXPECT_NE(table.str().find("3 events beyond capacity"), std::string::npos);
  std::ostringstream timeline;
  trace.print_timeline(timeline);
  EXPECT_NE(timeline.str().find("3 events beyond capacity"), std::string::npos);
}

}  // namespace
}  // namespace smtu
