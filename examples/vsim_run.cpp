// vsim_run: assemble and execute a vector-assembly program from a file —
// the simulator as a standalone tool for writing custom kernels.
//
//   ./vsim_run program.s [--r1=value ... --r9=value] [--section=64]
//               [--no-chaining] [--trace=N] [--dump-regs] [--listing]
//               [--timeline] [--events] [--trace-json=out.json]
//               [--profile] [--profile-json=out.json]
//               [--profile-speedscope=out.json]
//               [--telemetry] [--telemetry-json=out.json]
//
// Scalar registers r1..r29 can be preset via --rN=value (decimal or hex).
// After the run, cycle statistics are printed; --dump-regs adds the final
// scalar register file. --trace-json writes the execution trace in Chrome
// trace-event format (load it in chrome://tracing or Perfetto; one track
// per functional unit — see docs/TRACE.md). --profile prints the
// cycle-attribution summary (stall taxonomy, FU occupancy, hottest source
// lines); --profile-json / --profile-speedscope write the same counters as
// smtu-profile-v1 JSON and a speedscope.app flamegraph (docs/PROFILING.md).
// --telemetry times the host-side assemble/run phases (docs/TELEMETRY.md);
// --telemetry-json writes the smtu-telemetry-v1 document, and combined with
// --trace-json the host spans join the dump under their own pid.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/cli.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "vsim/assembler.hpp"
#include "vsim/json_export.hpp"
#include "vsim/machine.hpp"
#include "vsim/profiler.hpp"
#include "vsim/trace.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const u32 section = cli.get_u32("section", 64, 2);
  if (section > 256) {
    cli.fail(format("option --section expects an integer in [2, 256], got '%u'", section));
  }
  const bool no_chaining = cli.get_flag("no-chaining");
  const i64 trace = cli.get_int("trace", 0);
  const bool dump_regs = cli.get_flag("dump-regs");
  const bool listing = cli.get_flag("listing");
  const bool timeline = cli.get_flag("timeline");
  const bool events = cli.get_flag("events");
  const std::string trace_json = cli.get_string("trace-json", "");
  const bool profile = cli.get_flag("profile");
  const std::string profile_json = cli.get_string("profile-json", "");
  const std::string profile_speedscope = cli.get_string("profile-speedscope", "");
  const std::string telemetry_json = cli.get_string("telemetry-json", "");
  const bool telemetry_on = cli.get_flag("telemetry") || !telemetry_json.empty();
  if (telemetry_on) {
    telemetry::set_enabled(true);
    if (!trace_json.empty()) telemetry::set_host_trace_enabled(true);
  }

  vsim::MachineConfig config;
  config.section = section;
  config.chaining = !no_chaining;
  vsim::Machine machine(config);

  for (u32 r = 1; r < vsim::kNumScalarRegs - 2; ++r) {
    const std::string key = "r" + std::to_string(r);
    const i64 preset = cli.get_int(key, -1);
    if (preset >= 0) machine.set_sreg(r, static_cast<u64>(preset));
  }
  cli.finish();

  if (cli.positional().size() != 1) {
    std::fprintf(stderr, "usage: vsim_run <program.s> [--rN=value ...]\n");
    return 2;
  }
  std::ifstream in(cli.positional()[0]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", cli.positional()[0].c_str());
    return 2;
  }
  std::ostringstream source;
  source << in.rdbuf();

  vsim::Program program;
  try {
    telemetry::HostSpan span("vsim.assemble_us");
    program = vsim::assemble(source.str());
  } catch (const vsim::AssemblyError& e) {
    std::fprintf(stderr, "%s: %s\n", cli.positional()[0].c_str(), e.what());
    return 1;
  }
  if (listing) std::fputs(program.listing().c_str(), stdout);

  machine.set_sreg(vsim::kRegSp, 0x10000);  // stack below the usual image base
  machine.memory().ensure(0, 1 << 20);      // a scratch megabyte
  if (trace > 0) machine.enable_trace(static_cast<u64>(trace));
  vsim::ExecutionTrace execution_trace(trace_json.empty() ? 512 : (usize{1} << 20));
  if (timeline || events || !trace_json.empty()) machine.attach_trace(&execution_trace);
  vsim::PerfCounters profiler;
  if (profile || !profile_json.empty() || !profile_speedscope.empty()) {
    machine.attach_profiler(&profiler);
  }

  vsim::RunStats stats;
  {
    telemetry::HostSpan span("vsim.run_us");
    stats = machine.run(program, program.has_label("main") ? program.label("main") : 0);
  }
  std::fputs(vsim::run_stats_summary(stats).c_str(), stdout);
  if (events) {
    std::ostringstream table;
    execution_trace.print_table(table);
    std::fputs(table.str().c_str(), stdout);
  }
  if (timeline) {
    std::ostringstream gantt;
    execution_trace.print_timeline(gantt);
    std::fputs(gantt.str().c_str(), stdout);
  }
  if (!trace_json.empty()) {
    std::ofstream trace_out = open_output_file(trace_json);
    vsim::write_chrome_trace(trace_out, execution_trace, cli.positional()[0]);
    std::fprintf(stderr, "wrote Chrome trace (%zu events) to %s\n",
                 execution_trace.events().size(), trace_json.c_str());
  }
  if (profile) std::fputs(vsim::profile_summary(profiler).c_str(), stdout);
  if (!profile_json.empty()) {
    std::ofstream profile_out = open_output_file(profile_json);
    JsonWriter json(profile_out);
    vsim::write_profile_json(json, profiler);
    profile_out << '\n';
    std::fprintf(stderr, "wrote profile JSON to %s\n", profile_json.c_str());
  }
  if (!profile_speedscope.empty()) {
    std::ofstream speedscope_out = open_output_file(profile_speedscope);
    vsim::write_speedscope_profile(speedscope_out, profiler, cli.positional()[0]);
    std::fprintf(stderr, "wrote speedscope profile to %s\n", profile_speedscope.c_str());
  }

  if (!telemetry_json.empty()) {
    std::ofstream telemetry_out = open_output_file(telemetry_json);
    JsonWriter json(telemetry_out);
    telemetry::write_telemetry_json(json);
    telemetry_out << '\n';
    std::fprintf(stderr, "wrote telemetry JSON to %s\n", telemetry_json.c_str());
  }
  if (telemetry_on) {
    std::fprintf(stderr, "-- telemetry --\n%s",
                 telemetry::MetricsRegistry::instance().summary().c_str());
  }

  if (dump_regs) {
    for (u32 r = 1; r < vsim::kNumScalarRegs; ++r) {
      const u64 value = machine.sreg(r);
      if (value != 0) {
        std::printf("r%-2u = %llu (0x%llx)\n", r, static_cast<unsigned long long>(value),
                    static_cast<unsigned long long>(value));
      }
    }
  }
  return 0;
}
