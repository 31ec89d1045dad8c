#include "vsim/json_export.hpp"

#include <algorithm>
#include <map>

#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace smtu::vsim {

namespace {

// One row per counter keeps the writer, the reader, and the docs in lock
// step: add a RunStats member here and both directions pick it up.
struct StatsField {
  const char* key;
  u64 RunStats::* member;
};

constexpr StatsField kU64Fields[] = {
    {"instructions", &RunStats::instructions},
    {"scalar_instructions", &RunStats::scalar_instructions},
    {"vector_instructions", &RunStats::vector_instructions},
    {"vector_elements", &RunStats::vector_elements},
    {"mem_contiguous_bytes", &RunStats::mem_contiguous_bytes},
    {"mem_indexed_elements", &RunStats::mem_indexed_elements},
    {"stm_blocks", &RunStats::stm_blocks},
    {"stm_write_cycles", &RunStats::stm_write_cycles},
    {"stm_read_cycles", &RunStats::stm_read_cycles},
    {"stm_elements", &RunStats::stm_elements},
    {"vmem_busy_cycles", &RunStats::vmem_busy_cycles},
    {"valu_busy_cycles", &RunStats::valu_busy_cycles},
    {"stm_busy_cycles", &RunStats::stm_busy_cycles},
};

}  // namespace

void write_run_stats_json(JsonWriter& json, const RunStats& stats) {
  json.begin_object();
  json.key("cycles");
  json.value(static_cast<u64>(stats.cycles));
  for (const StatsField& field : kU64Fields) {
    json.key(field.key);
    json.value(stats.*field.member);
  }
  json.end_object();
}

std::optional<RunStats> run_stats_from_json(const JsonValue& value) {
  if (!value.is_object()) return std::nullopt;
  const auto counter = [&](const char* key) -> std::optional<u64> {
    const JsonValue* member = value.find(key);
    return member != nullptr ? member->try_u64() : std::nullopt;
  };
  const std::optional<u64> cycles = counter("cycles");
  if (!cycles.has_value()) return std::nullopt;
  RunStats stats;
  stats.cycles = static_cast<Cycle>(*cycles);
  for (const StatsField& field : kU64Fields) {
    const std::optional<u64> count = counter(field.key);
    if (!count.has_value()) return std::nullopt;
    stats.*field.member = *count;
  }
  return stats;
}

void write_machine_config_json(JsonWriter& json, const MachineConfig& config) {
  json.begin_object();
  json.key("section");
  json.value(static_cast<u64>(config.section));
  json.key("lanes");
  json.value(static_cast<u64>(config.lanes));
  json.key("chaining");
  json.value(config.chaining);
  json.key("valu_startup");
  json.value(static_cast<u64>(config.valu_startup));
  json.key("mem_startup");
  json.value(static_cast<u64>(config.mem_startup));
  json.key("mem_bytes_per_cycle");
  json.value(static_cast<u64>(config.mem_bytes_per_cycle));
  json.key("mem_indexed_elems_per_cycle");
  json.value(static_cast<u64>(config.mem_indexed_elems_per_cycle));
  json.key("mem_pipelined_startup");
  json.value(config.mem_pipelined_startup);
  json.key("scalar_issue_width");
  json.value(static_cast<u64>(config.scalar_issue_width));
  json.key("scalar_mem_ports");
  json.value(static_cast<u64>(config.scalar_mem_ports));
  json.key("scalar_load_latency");
  json.value(static_cast<u64>(config.scalar_load_latency));
  json.key("scalar_op_latency");
  json.value(static_cast<u64>(config.scalar_op_latency));
  json.key("mul_latency");
  json.value(static_cast<u64>(config.mul_latency));
  json.key("branch_penalty");
  json.value(static_cast<u64>(config.branch_penalty));
  json.key("stm");
  json.begin_object();
  json.key("bandwidth");
  json.value(static_cast<u64>(config.stm.bandwidth));
  json.key("lines");
  json.value(static_cast<u64>(config.stm.lines));
  json.key("strict_consecutive_lines");
  json.value(config.stm.strict_consecutive_lines);
  json.key("fill_pipeline_cycles");
  json.value(static_cast<u64>(config.stm.fill_pipeline_cycles));
  json.key("drain_pipeline_cycles");
  json.value(static_cast<u64>(config.stm.drain_pipeline_cycles));
  json.key("skip_empty_lines");
  json.value(config.stm.skip_empty_lines);
  json.key("double_buffer");
  json.value(config.stm.double_buffer);
  json.end_object();
  json.end_object();
}

void write_chrome_trace(std::ostream& out, const ExecutionTrace& trace,
                        const std::string& process_name) {
  JsonWriter json(out);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();

  // Track metadata: one process, one named thread per functional unit,
  // ordered scalar / vmem / valu / stm top to bottom.
  json.begin_object();
  json.key("name");
  json.value("process_name");
  json.key("ph");
  json.value("M");
  json.key("pid");
  json.value(u64{1});
  json.key("args");
  json.begin_object();
  json.key("name");
  json.value(process_name);
  json.end_object();
  json.end_object();
  for (usize tid = 0; tid < std::size(kUnitTracks); ++tid) {
    json.begin_object();
    json.key("name");
    json.value("thread_name");
    json.key("ph");
    json.value("M");
    json.key("pid");
    json.value(u64{1});
    json.key("tid");
    json.value(static_cast<u64>(tid));
    json.key("args");
    json.begin_object();
    json.key("name");
    json.value(kUnitTracks[tid].name);
    json.end_object();
    json.end_object();
    json.begin_object();
    json.key("name");
    json.value("thread_sort_index");
    json.key("ph");
    json.value("M");
    json.key("pid");
    json.value(u64{1});
    json.key("tid");
    json.value(static_cast<u64>(tid));
    json.key("args");
    json.begin_object();
    json.key("sort_index");
    json.value(static_cast<u64>(tid));
    json.end_object();
    json.end_object();
  }

  // One complete ("X") slice per instruction on its unit's track. ts/dur are
  // in the format's microsecond unit; we map one simulated cycle to 1 us so
  // viewers show raw cycle numbers.
  for (const InstRecord& event : trace.events()) {
    const u64 start = static_cast<u64>(event.start);
    const u64 last = static_cast<u64>(std::max(event.last, event.start));
    const usize tid = unit_track(event.op);
    json.begin_object();
    json.key("name");
    json.value(op_name(event.op));
    json.key("cat");
    json.value(kUnitTracks[tid].name);
    json.key("ph");
    json.value("X");
    json.key("ts");
    json.value(start);
    json.key("dur");
    json.value(std::max<u64>(1, last - start));
    json.key("pid");
    json.value(u64{1});
    json.key("tid");
    json.value(static_cast<u64>(tid));
    json.key("args");
    json.begin_object();
    json.key("pc");
    json.value(static_cast<u64>(event.pc));
    json.key("vl");
    json.value(static_cast<u64>(event.vl));
    json.key("issue");
    json.value(static_cast<u64>(event.issue));
    json.key("start");
    json.value(start);
    json.key("first");
    json.value(static_cast<u64>(event.first));
    json.key("last");
    json.value(last);
    json.end_object();
    json.end_object();
  }

  // Host telemetry spans, interleaved under their own process id
  // (telemetry::kHostTracePid) so the simulated-unit tracks above are
  // untouched. The buffer is empty unless both telemetry and host tracing
  // are on, keeping default dumps byte-identical.
  const std::vector<telemetry::HostTraceEvent> host_events = telemetry::host_trace_events();
  if (!host_events.empty()) {
    json.begin_object();
    json.key("name");
    json.value("process_name");
    json.key("ph");
    json.value("M");
    json.key("pid");
    json.value(telemetry::kHostTracePid);
    json.key("args");
    json.begin_object();
    json.key("name");
    json.value("host");
    json.end_object();
    json.end_object();
    for (const telemetry::HostTraceEvent& event : host_events) {
      json.begin_object();
      json.key("name");
      json.value(event.name);
      json.key("cat");
      json.value("host");
      json.key("ph");
      json.value("X");
      json.key("ts");
      json.value(event.start_us);
      json.key("dur");
      json.value(std::max<u64>(1, event.dur_us));
      json.key("pid");
      json.value(telemetry::kHostTracePid);
      json.key("tid");
      json.value(static_cast<u64>(event.thread));
      json.end_object();
    }
  }
  json.end_array();
  json.key("displayTimeUnit");
  json.value("ns");
  // Machine-readable truncation marker: consumers should treat dropped > 0
  // as an incomplete timeline (raise the ExecutionTrace capacity).
  json.key("trace");
  json.begin_object();
  json.key("events");
  json.value(static_cast<u64>(trace.events().size()));
  json.key("capacity");
  json.value(static_cast<u64>(trace.capacity()));
  json.key("dropped");
  json.value(trace.dropped());
  json.end_object();
  json.key("dropped");  // legacy location, kept for old consumers
  json.value(trace.dropped());
  json.end_object();
  out << '\n';
}

void write_profile_json(JsonWriter& json, const PerfCounters& profile) {
  const double total = static_cast<double>(std::max<Cycle>(1, profile.total_cycles()));
  json.begin_object();
  json.key("schema");
  json.value("smtu-profile-v1");
  json.key("cycles");
  json.value(static_cast<u64>(profile.total_cycles()));
  json.key("runs");
  json.value(profile.runs());

  // Every bucket, zeros included, in enum order — Σ values == "cycles".
  json.key("buckets");
  json.begin_object();
  for (usize kind = 0; kind < kBusyKindCount; ++kind) {
    json.key(std::string("busy_") + busy_kind_name(static_cast<BusyKind>(kind)));
    json.value(profile.busy_cycles()[kind]);
  }
  for (usize reason = 0; reason < kStallReasonCount; ++reason) {
    json.key(std::string("stall_") + stall_reason_name(static_cast<StallReason>(reason)));
    json.value(profile.stall_cycles()[reason]);
  }
  json.end_object();

  json.key("fu");
  json.begin_object();
  for (usize kind = 0; kind < kBusyKindCount; ++kind) {
    const PerfCounters::FuCounters& fu = profile.fus()[kind];
    json.key(busy_kind_name(static_cast<BusyKind>(kind)));
    json.begin_object();
    json.key("instructions");
    json.value(fu.instructions);
    json.key("occupancy_cycles");
    json.value(fu.occupancy_cycles);
    json.key("idle_cycles");
    json.value(profile.total_cycles() > fu.occupancy_cycles
                   ? profile.total_cycles() - fu.occupancy_cycles
                   : 0);
    json.key("occupancy");
    json.value(static_cast<double>(fu.occupancy_cycles) / total);
    json.end_object();
  }
  json.end_object();

  json.key("opcodes");
  json.begin_object();
  for (usize op = 0; op < kOpCount; ++op) {
    const PerfCounters::OpCounters& counters = profile.ops()[op];
    if (counters.issued == 0) continue;
    json.key(op_name(static_cast<Op>(op)));
    json.begin_object();
    json.key("issued");
    json.value(counters.issued);
    json.key("retired");
    json.value(counters.retired);
    json.key("elements");
    json.value(counters.elements);
    json.key("busy_cycles");
    json.value(counters.busy_cycles);
    json.key("stall_cycles");
    json.value(counters.stall_cycles);
    json.end_object();
  }
  json.end_object();

  json.key("regions");
  json.begin_array();
  for (const PerfCounters::RegionCounters& region : profile.region_rollup()) {
    json.begin_object();
    json.key("name");
    json.value(region.name);
    json.key("issued");
    json.value(region.issued);
    json.key("busy_cycles");
    json.value(region.busy_cycles);
    json.key("stall_cycles");
    json.value(region.stall_cycles);
    json.end_object();
  }
  json.end_array();

  json.key("lines");
  json.begin_array();
  for (const PerfCounters::LineCounters& line : profile.line_rollup()) {
    json.begin_object();
    json.key("line");
    json.value(static_cast<u64>(line.line));
    json.key("text");
    json.value(line.text);
    json.key("region");
    json.value(line.region);
    json.key("issued");
    json.value(line.issued);
    json.key("busy_cycles");
    json.value(line.busy_cycles);
    json.key("stall_cycles");
    json.value(line.stall_cycles);
    json.key("stalls");
    json.begin_object();
    for (usize reason = 0; reason < kStallReasonCount; ++reason) {
      if (line.stalls[reason] == 0) continue;
      json.key(stall_reason_name(static_cast<StallReason>(reason)));
      json.value(line.stalls[reason]);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_speedscope_profile(std::ostream& out, const PerfCounters& profile,
                              const std::string& name) {
  // "sampled" speedscope profile: one synthetic sample per (line, bucket)
  // pair with the attributed cycle count as its weight, stacked as
  // region > line > bucket so the flamegraph drills down naturally.
  struct Sample {
    std::vector<usize> stack;  // frame indices, outermost first
    u64 weight;
  };
  std::vector<std::string> frames;
  std::map<std::string, usize> frame_index;
  auto intern = [&](const std::string& frame) {
    const auto [it, inserted] = frame_index.emplace(frame, frames.size());
    if (inserted) frames.push_back(frame);
    return it->second;
  };

  std::vector<Sample> samples;
  for (const PerfCounters::LineCounters& line : profile.line_rollup()) {
    std::vector<usize> prefix;
    prefix.push_back(intern(line.region.empty() ? "(no region)" : line.region));
    prefix.push_back(intern(format("L%u: %s", line.line, line.text.c_str())));
    if (line.busy_cycles > 0) {
      Sample sample{prefix, line.busy_cycles};
      sample.stack.push_back(intern("busy"));
      samples.push_back(std::move(sample));
    }
    for (usize reason = 0; reason < kStallReasonCount; ++reason) {
      if (line.stalls[reason] == 0) continue;
      Sample sample{prefix, line.stalls[reason]};
      sample.stack.push_back(intern(std::string("stall: ") +
                                    stall_reason_name(static_cast<StallReason>(reason))));
      samples.push_back(std::move(sample));
    }
  }

  JsonWriter json(out);
  json.begin_object();
  json.key("$schema");
  json.value("https://www.speedscope.app/file-format-schema.json");
  json.key("shared");
  json.begin_object();
  json.key("frames");
  json.begin_array();
  for (const std::string& frame : frames) {
    json.begin_object();
    json.key("name");
    json.value(frame);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  json.key("profiles");
  json.begin_array();
  json.begin_object();
  json.key("type");
  json.value("sampled");
  json.key("name");
  json.value(name);
  json.key("unit");
  json.value("none");
  json.key("startValue");
  json.value(u64{0});
  json.key("endValue");
  json.value(static_cast<u64>(profile.total_cycles()));
  json.key("samples");
  json.begin_array();
  for (const Sample& sample : samples) {
    json.begin_array();
    for (const usize frame : sample.stack) json.value(static_cast<u64>(frame));
    json.end_array();
  }
  json.end_array();
  json.key("weights");
  json.begin_array();
  for (const Sample& sample : samples) json.value(sample.weight);
  json.end_array();
  json.end_object();
  json.end_array();
  json.key("name");
  json.value(name);
  json.end_object();
  out << '\n';
}

}  // namespace smtu::vsim
