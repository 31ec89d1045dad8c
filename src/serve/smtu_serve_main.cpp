// smtu_serve: the transpose-as-a-service driver (docs/SERVING.md).
//
// Two modes:
//
//   smtu_serve --generate --trace-out=FILE [generator options]
//     Samples a seeded open-loop request trace and writes the smtu-trace-v1
//     document. Generation is deterministic in its options.
//
//   smtu_serve --replay=FILE [--json=FILE] [scheduler options]
//     Replays a recorded trace through the batch-serving engine and writes
//     the smtu-serve-v1 report. The report's "virtual" section is
//     bit-identical across -j values, runs, and machines; "host" carries the
//     wall-clock measurements.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace smtu::serve {
namespace {

int serve_main(int argc, const char* const* argv) {
  CommandLine cli(argc, argv);

  // Mode selection.
  const bool generate = cli.get_flag("generate");
  const std::string replay_path = cli.get_string("replay", "");

  // Generator options.
  GeneratorOptions gen;
  gen.seed = cli.get_u64("seed", gen.seed);
  gen.set = cli.get_string("set", gen.set);
  gen.suite.scale = cli.get_double("scale", gen.suite.scale);
  gen.requests = cli.get_u32("requests", gen.requests, 1);
  gen.arrival.mode = cli.get_string("arrival", gen.arrival.mode);
  gen.arrival.rate_rps = cli.get_double("rate", gen.arrival.rate_rps);
  gen.arrival.zipf_skew = cli.get_double("zipf", gen.arrival.zipf_skew);
  gen.arrival.hism_fraction = cli.get_double("hism-fraction", gen.arrival.hism_fraction);
  gen.arrival.alt_config_fraction =
      cli.get_double("alt-config-fraction", gen.arrival.alt_config_fraction);
  const std::string trace_out = cli.get_string("trace-out", "");

  // Scheduler options.
  ServeOptions options;
  options.dedup = !cli.get_flag("no-dedup");
  options.batching = !cli.get_flag("no-batching");
  options.queue_depth = cli.get_u32("queue-depth", options.queue_depth);
  options.virtual_workers = cli.get_u32("workers", options.virtual_workers, 1);
  options.cycles_per_us = cli.get_u32("cycles-per-us", options.cycles_per_us);
  options.replay_vus = cli.get_u32("replay-vus", options.replay_vus);
  options.closed_loop = cli.get_u32("closed-loop", options.closed_loop);
  options.jobs = cli.get_u32("jobs", 0);
  const std::string sim_cache = cli.get_string("sim-cache", "");
  if (!sim_cache.empty()) options.sim_cache_dir = sim_cache;

  const std::string json_out = cli.get_string("json", "");
  const bool telemetry_on = cli.get_flag("telemetry");
  const std::string telemetry_json = cli.get_string("telemetry-json", "");
  cli.finish();

  if (generate == !replay_path.empty()) {
    cli.fail("pass exactly one of --generate or --replay=FILE");
  }
  if (generate && trace_out.empty()) cli.fail("option --generate requires --trace-out=FILE");
  if (!suite::valid_scale(gen.suite.scale)) {
    cli.fail(format("option --scale expects a number in (0, 1], got '%g'", gen.suite.scale));
  }
  if (!suite::is_dsab_set(gen.set)) {
    cli.fail("option --set expects locality, anz or size, got '" + gen.set + "'");
  }
  if (!valid_arrival_mode(gen.arrival.mode)) {
    cli.fail("option --arrival expects poisson, bursty or heavytail, got '" +
             gen.arrival.mode + "'");
  }
  if (!valid_rate(gen.arrival.rate_rps)) {
    cli.fail(format("option --rate expects a positive finite number, got '%g'",
                    gen.arrival.rate_rps));
  }
  if (!valid_zipf_skew(gen.arrival.zipf_skew)) {
    cli.fail(format("option --zipf expects a finite number, got '%g'", gen.arrival.zipf_skew));
  }
  if (!valid_fraction(gen.arrival.hism_fraction)) {
    cli.fail(format("option --hism-fraction expects a number in [0, 1], got '%g'",
                    gen.arrival.hism_fraction));
  }
  if (!valid_fraction(gen.arrival.alt_config_fraction)) {
    cli.fail(format("option --alt-config-fraction expects a number in [0, 1], got '%g'",
                    gen.arrival.alt_config_fraction));
  }

  if (options.sim_cache_dir) create_output_directory(*options.sim_cache_dir);

  if (telemetry_on || !telemetry_json.empty()) telemetry::set_enabled(true);

  if (generate) {
    const Trace trace = generate_trace(gen);
    write_trace_file(trace_out, trace);
    std::fprintf(stderr, "wrote %zu-request %s trace (set=%s scale=%g zipf=%g) to %s\n",
                 trace.requests.size(), trace.arrival.mode.c_str(), trace.set.c_str(),
                 trace.suite.scale, trace.arrival.zipf_skew, trace_out.c_str());
    return 0;
  }

  std::string trace_error;
  const std::optional<Trace> loaded = load_trace_file(replay_path, &trace_error);
  if (!loaded.has_value()) {
    std::fprintf(stderr, "smtu_serve: %s\n", trace_error.c_str());
    return 2;
  }
  const Trace& trace = *loaded;
  // Open the outputs before serving, so a path that cannot be written fails
  // before the batch runs, not after.
  std::ofstream report_file;
  if (!json_out.empty()) report_file = open_output_file(json_out);
  std::ofstream telemetry_file;
  if (!telemetry_json.empty()) telemetry_file = open_output_file(telemetry_json);

  const ServeReport report = serve_trace(trace, options);
  {
    std::ostream& out = json_out.empty() ? std::cout : report_file;
    JsonWriter json(out);
    write_serve_report_json(json, trace, options, report);
    out << '\n';
  }
  if (!json_out.empty()) std::fprintf(stderr, "wrote serve report to %s\n", json_out.c_str());

  if (!telemetry_json.empty()) {
    JsonWriter json(telemetry_file);
    telemetry::write_telemetry_json(json);
    telemetry_file << '\n';
  }

  std::fprintf(stderr,
               "served %zu requests: %llu simulated, %llu coalesced, %llu warm, %llu shed "
               "(%.0f req/s host, p99 total %llu vus)\n",
               trace.requests.size(),
               static_cast<unsigned long long>(report.virt.simulated_requests),
               static_cast<unsigned long long>(report.virt.coalesced_requests),
               static_cast<unsigned long long>(report.virt.warm_requests),
               static_cast<unsigned long long>(report.virt.shed_requests),
               report.host.req_per_sec,
               static_cast<unsigned long long>(report.virt.total.p99));
  return 0;
}

}  // namespace
}  // namespace smtu::serve

int main(int argc, char** argv) { return smtu::serve::serve_main(argc, argv); }
