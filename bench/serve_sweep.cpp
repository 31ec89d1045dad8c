// Serving-load sweep: closed-loop versus open-loop behavior of the
// transpose-as-a-service scheduler (src/serve, docs/SERVING.md).
//
// One Zipf-skewed request mix is generated per run; its distinct keys are
// simulated once on the host (the expensive part), then the deterministic
// virtual-time scheduler replays the same requests under
//
//   * open loop at a ladder of offered arrival rates (the recorded Poisson
//     arrivals rescaled in virtual time), showing queueing, tail latency,
//     and — past saturation — load shedding; and
//   * closed loop at a ladder of client counts, showing the saturation
//     throughput the admission queue protects.
//
// --json writes an "smtu-serve-sweep-v1" report whose metrics are all
// virtual-time (deterministic, gated by tools/bench_diff.py against
// bench/baselines/BENCH_serve_sweep_scale005.json); host wall time appears
// only under the skipped "host" section.
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"

namespace {

using namespace smtu;

constexpr double kOpenLoopRates[] = {10000.0, 20000.0, 40000.0, 80000.0, 160000.0, 320000.0};
constexpr u32 kClosedLoopClients[] = {1, 2, 4, 8, 16};

// The recorded arrivals rescaled to a different offered rate: a Poisson
// process thinned/accelerated in virtual time (gap * base_rate / target).
// Integer math keeps the rescaled trace bit-identical everywhere.
std::vector<serve::Request> rescale_arrivals(const std::vector<serve::Request>& requests,
                                             double base_rate, double target_rate) {
  std::vector<serve::Request> scaled = requests;
  // Rational factor with a fixed denominator so the scaling is exact in u64.
  const u64 num = static_cast<u64>(base_rate * 1024.0);
  const u64 den = static_cast<u64>(target_rate * 1024.0);
  for (serve::Request& request : scaled) {
    request.arrival_us = request.arrival_us * num / den;
  }
  return scaled;
}

struct SweepPoint {
  double rate_rps = 0.0;  // open loop
  u32 clients = 0;        // closed loop
  serve::VirtualReport virt;
};

void write_point(JsonWriter& json, const SweepPoint& point, bool open_loop) {
  json.begin_object();
  if (open_loop) {
    json.key("rate_rps");
    json.value(point.rate_rps);
  } else {
    json.key("clients");
    json.value(static_cast<u64>(point.clients));
  }
  json.key("admitted_requests");
  json.value(point.virt.admitted_requests);
  json.key("shed_requests");
  json.value(point.virt.shed_requests);
  json.key("coalesced_requests");
  json.value(point.virt.coalesced_requests);
  json.key("warm_requests");
  json.value(point.virt.warm_requests);
  json.key("simulated_requests");
  json.value(point.virt.simulated_requests);
  json.key("max_queue_depth");
  json.value(point.virt.max_queue_depth);
  json.key("makespan_vus");
  json.value(point.virt.makespan_vus);
  // Virtual throughput: admitted requests per virtual second — deterministic,
  // unlike the host's req_per_sec.
  json.key("virtual_krps");
  json.value(point.virt.makespan_vus == 0
                 ? 0.0
                 : static_cast<double>(point.virt.admitted_requests) * 1000.0 /
                       static_cast<double>(point.virt.makespan_vus));
  json.key("queue_p50_vus");
  json.value(point.virt.queue.p50);
  json.key("queue_p99_vus");
  json.value(point.virt.queue.p99);
  json.key("total_p50_vus");
  json.value(point.virt.total.p50);
  json.key("total_p99_vus");
  json.value(point.virt.total.p99);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  serve::GeneratorOptions gen;
  gen.suite = options.suite;
  gen.requests = 600;
  gen.arrival.zipf_skew = 1.0;
  gen.arrival.rate_rps = 20000.0;
  const serve::Trace trace = serve::generate_trace(gen);

  std::printf("== serve_sweep: open-loop rate ladder vs closed-loop clients "
              "(%zu requests, zipf %.1f, scale %g) ==\n",
              trace.requests.size(), trace.arrival.zipf_skew, trace.suite.scale);

  serve::ServeOptions serve_options;
  serve_options.jobs = options.jobs;
  serve_options.sim_cache_dir = options.sim_cache_dir;
  const auto started = std::chrono::steady_clock::now();
  const auto key_cycles = serve::simulate_keys(trace, serve_options);
  const double sim_wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
          .count();

  std::vector<SweepPoint> open_points;
  std::printf("\n-- open loop (queue depth %u, %u virtual workers) --\n",
              serve_options.queue_depth, serve_options.virtual_workers);
  std::printf("%12s %10s %8s %12s %12s %12s\n", "rate_rps", "shed", "qmax", "q_p99_vus",
              "tot_p99_vus", "virt_krps");
  for (const double rate : kOpenLoopRates) {
    SweepPoint point;
    point.rate_rps = rate;
    const auto scaled = rescale_arrivals(trace.requests, trace.arrival.rate_rps, rate);
    point.virt = serve::run_virtual(scaled, key_cycles, serve_options);
    const double krps = point.virt.makespan_vus == 0
                            ? 0.0
                            : static_cast<double>(point.virt.admitted_requests) * 1000.0 /
                                  static_cast<double>(point.virt.makespan_vus);
    std::printf("%12.0f %10llu %8llu %12llu %12llu %12.1f\n", rate,
                static_cast<unsigned long long>(point.virt.shed_requests),
                static_cast<unsigned long long>(point.virt.max_queue_depth),
                static_cast<unsigned long long>(point.virt.queue.p99),
                static_cast<unsigned long long>(point.virt.total.p99), krps);
    open_points.push_back(std::move(point));
  }

  std::vector<SweepPoint> closed_points;
  std::printf("\n-- closed loop --\n");
  std::printf("%12s %12s %12s %12s\n", "clients", "tot_p99_vus", "makespan", "virt_krps");
  for (const u32 clients : kClosedLoopClients) {
    SweepPoint point;
    point.clients = clients;
    serve::ServeOptions closed = serve_options;
    closed.closed_loop = clients;
    point.virt = serve::run_virtual(trace.requests, key_cycles, closed);
    const double krps = point.virt.makespan_vus == 0
                            ? 0.0
                            : static_cast<double>(point.virt.admitted_requests) * 1000.0 /
                                  static_cast<double>(point.virt.makespan_vus);
    std::printf("%12u %12llu %12llu %12.1f\n", clients,
                static_cast<unsigned long long>(point.virt.total.p99),
                static_cast<unsigned long long>(point.virt.makespan_vus), krps);
    closed_points.push_back(std::move(point));
  }
  std::printf("\nhost: %zu distinct simulations in %.0f ms\n", key_cycles.size(), sim_wall_ms);

  if (options.json_path) {
    std::ofstream out = open_output_file(*options.json_path);
    JsonWriter json(out);
    json.begin_object();
    json.key("schema");
    json.value("smtu-serve-sweep-v1");
    json.key("seed");
    json.value(trace.seed);
    json.key("scale");
    json.value(trace.suite.scale);
    json.key("requests");
    json.value(static_cast<u64>(trace.requests.size()));
    json.key("distinct_sims");
    json.value(static_cast<u64>(key_cycles.size()));
    json.key("open_loop");
    json.begin_array();
    for (const SweepPoint& point : open_points) write_point(json, point, true);
    json.end_array();
    json.key("closed_loop");
    json.begin_array();
    for (const SweepPoint& point : closed_points) write_point(json, point, false);
    json.end_array();
    json.key("host");
    json.begin_object();
    json.key("sim_wall_ms");
    json.value(sim_wall_ms);
    json.end_object();
    json.end_object();
    out << '\n';
    std::fprintf(stderr, "wrote %s\n", options.json_path->c_str());
  }
  bench::finish_telemetry(options);
  return 0;
}
