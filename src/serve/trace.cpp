#include "serve/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "hism/hism.hpp"
#include "support/assert.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace smtu::serve {
namespace {

constexpr std::string_view kSchema = "smtu-trace-v1";

// Cumulative Zipf table over `count` popularity ranks: rank r gets weight
// 1/(r+1)^skew. Popularity is detached from matrix index by a seeded
// permutation (otherwise "popular" would always mean "lowest locality").
struct ZipfSampler {
  std::vector<double> cumulative;
  std::vector<u32> rank_to_matrix;

  ZipfSampler(u32 count, double skew, Rng& rng) {
    cumulative.reserve(count);
    double total = 0.0;
    for (u32 rank = 0; rank < count; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), skew);
      cumulative.push_back(total);
    }
    for (double& value : cumulative) value /= total;
    rank_to_matrix.resize(count);
    for (u32 i = 0; i < count; ++i) rank_to_matrix[i] = i;
    rng.shuffle(rank_to_matrix);
  }

  u32 sample(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    const usize rank = std::min<usize>(static_cast<usize>(it - cumulative.begin()),
                                       cumulative.size() - 1);
    return rank_to_matrix[rank];
  }
};

// One inter-arrival gap in virtual microseconds, >= 1 so arrivals strictly
// advance within a burst only when the rate allows it (equal times are fine).
u64 next_gap_us(const ArrivalSpec& arrival, u64 now_us, Rng& rng) {
  const double mean_gap_us = 1e6 / arrival.rate_rps;
  double gap;
  if (arrival.mode == "bursty") {
    const u64 period = arrival.burst_on_us + arrival.burst_off_us;
    const bool on = period == 0 || (now_us % period) < arrival.burst_on_us;
    const double rate_scale = on ? arrival.burst_multiplier : 0.2;
    gap = -std::log(1.0 - rng.uniform()) * mean_gap_us / rate_scale;
  } else if (arrival.mode == "heavytail") {
    // Pareto with tail index alpha, scaled so the (uncapped) mean matches
    // the requested rate; the 100x cap keeps a single draw from stalling
    // the whole trace.
    const double alpha = arrival.heavytail_alpha;
    SMTU_CHECK_MSG(alpha > 1.0, "heavytail_alpha must be > 1 for a finite mean");
    const double scale = mean_gap_us * (alpha - 1.0) / alpha;
    gap = scale * std::pow(1.0 - rng.uniform(), -1.0 / alpha);
    gap = std::min(gap, 100.0 * mean_gap_us);
  } else {
    SMTU_CHECK_MSG(arrival.mode == "poisson",
                   "unknown arrival mode '" + arrival.mode + "'");
    gap = -std::log(1.0 - rng.uniform()) * mean_gap_us;
  }
  return std::max<u64>(1, static_cast<u64>(std::llround(gap)));
}

bool set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// Reads an optional unsigned member into `value`: absent keeps it as is;
// present must be an integer that fits T, never truncated or rounded.
template <typename T>
bool read_uint(const JsonValue& object, std::string_view key, T& value, std::string* error) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) return true;
  const std::optional<u64> number = member->try_u64();
  if (!number.has_value() || *number > std::numeric_limits<T>::max()) {
    return set_error(error, format("\"%s\" is not an unsigned %zu-bit integer",
                                   std::string(key).c_str(), sizeof(T) * 8));
  }
  value = static_cast<T>(*number);
  return true;
}

// Why a config variant cannot run, or nullptr. The kernels need a section
// the HiSM builder accepts, and the STM at least one element and one line
// per cycle (the machine clamps L to s).
const char* invalid_config_field(const ConfigSpec& spec) {
  if (!HismMatrix::valid_section(spec.section)) {
    return "\"section\" is not a power of two in [2, 256]";
  }
  if (spec.stm_bandwidth == 0) return "\"stm_bandwidth\" is 0";
  if (spec.stm_lines == 0) return "\"stm_lines\" is 0";
  return nullptr;
}

// Reads an optional number member into `value`: absent keeps it as is;
// present must be a number, never a string or other value in its place.
bool read_number(const JsonValue& object, std::string_view key, double& value,
                 std::string* error) {
  const JsonValue* member = object.find(key);
  if (member == nullptr) return true;
  if (!member->is_number()) {
    return set_error(error, format("\"%s\" is not a number", std::string(key).c_str()));
  }
  value = member->as_double();
  return true;
}

// The "arrival" object: provenance only (replay never re-samples), but a
// value of the wrong kind is still a malformed trace.
bool read_arrival(const JsonValue& arrival, ArrivalSpec& spec, std::string* error) {
  if (const JsonValue* mode = arrival.find("mode"); mode != nullptr) {
    if (!mode->is_string() || !valid_arrival_mode(mode->as_string())) {
      return set_error(error, "\"mode\" is not poisson, bursty or heavytail");
    }
    spec.mode = mode->as_string();
  }
  return read_number(arrival, "rate_rps", spec.rate_rps, error) &&
         read_number(arrival, "zipf_skew", spec.zipf_skew, error) &&
         read_number(arrival, "hism_fraction", spec.hism_fraction, error) &&
         read_number(arrival, "alt_config_fraction", spec.alt_config_fraction, error) &&
         read_uint(arrival, "burst_on_us", spec.burst_on_us, error) &&
         read_uint(arrival, "burst_off_us", spec.burst_off_us, error) &&
         read_number(arrival, "burst_multiplier", spec.burst_multiplier, error) &&
         read_number(arrival, "heavytail_alpha", spec.heavytail_alpha, error);
}

}  // namespace

bool valid_arrival_mode(std::string_view mode) {
  return mode == "poisson" || mode == "bursty" || mode == "heavytail";
}

bool valid_rate(double rate_rps) { return rate_rps > 0.0 && std::isfinite(rate_rps); }

bool valid_zipf_skew(double skew) { return std::isfinite(skew); }

bool valid_fraction(double fraction) { return fraction >= 0.0 && fraction <= 1.0; }

const char* kernel_name(Kernel kernel) {
  switch (kernel) {
    case Kernel::kHism:
      return "hism";
    case Kernel::kCrs:
      return "crs";
  }
  return "?";
}

bool kernel_from_name(std::string_view name, Kernel& kernel) {
  for (u32 i = 0; i < kKernelCount; ++i) {
    if (name == kernel_name(static_cast<Kernel>(i))) {
      kernel = static_cast<Kernel>(i);
      return true;
    }
  }
  return false;
}

vsim::MachineConfig machine_config_for(const ConfigSpec& spec) {
  vsim::MachineConfig config;
  config.section = spec.section;
  config.stm.section = spec.section;
  config.stm.bandwidth = spec.stm_bandwidth;
  config.stm.lines = spec.stm_lines;
  return config;
}

Trace generate_trace(const GeneratorOptions& options) {
  SMTU_CHECK_MSG(options.requests > 0, "trace generator needs at least one request");
  // next_gap_us divides by the rate: 0, a negative or a non-finite rate
  // would wrap the arrival times.
  SMTU_CHECK_MSG(valid_rate(options.arrival.rate_rps),
                 "trace generator needs a positive finite rate_rps");
  // The trace writer would turn a non-finite skew into null, which replay
  // rejects; a fraction outside [0, 1] is not a probability.
  SMTU_CHECK_MSG(valid_zipf_skew(options.arrival.zipf_skew),
                 "trace generator needs a finite zipf_skew");
  SMTU_CHECK_MSG(valid_fraction(options.arrival.hism_fraction) &&
                     valid_fraction(options.arrival.alt_config_fraction),
                 "trace generator needs hism_fraction and alt_config_fraction in [0, 1]");
  const auto set = suite::build_dsab_set(options.set, options.suite);
  SMTU_CHECK_MSG(!set.empty(), "suite set '" + options.set + "' is empty");

  Trace trace;
  trace.seed = options.seed;
  trace.set = options.set;
  trace.suite = options.suite;
  trace.arrival = options.arrival;
  trace.matrix_count = static_cast<u32>(set.size());
  // Variant 0 is the paper's default machine; variant 1 a narrower STM
  // (B=2, L=2). Distinct variants change the kernel source (strip-mining)
  // and the timing, so they exercise the ProgramCache/SimCache keying.
  trace.configs.push_back(ConfigSpec{});
  trace.configs.push_back(ConfigSpec{64, 2, 2});

  Rng rng(options.seed);
  const ZipfSampler popularity(trace.matrix_count, options.arrival.zipf_skew, rng);
  u64 now_us = 0;
  trace.requests.reserve(options.requests);
  for (u32 id = 0; id < options.requests; ++id) {
    // Fixed draw order per request (gap, matrix, kernel, config) keeps the
    // trace a pure function of the options.
    now_us += next_gap_us(options.arrival, now_us, rng);
    Request request;
    request.id = id;
    request.matrix = popularity.sample(rng);
    request.kernel = rng.chance(options.arrival.hism_fraction) ? Kernel::kHism : Kernel::kCrs;
    request.config = rng.chance(options.arrival.alt_config_fraction) ? 1u : 0u;
    request.arrival_us = now_us;
    trace.requests.push_back(request);
  }
  return trace;
}

void write_trace_json(JsonWriter& json, const Trace& trace) {
  json.begin_object();
  json.key("schema");
  json.value(std::string(kSchema));
  json.key("seed");
  json.value(trace.seed);
  json.key("set");
  json.value(trace.set);
  json.key("suite");
  json.begin_object();
  json.key("seed");
  json.value(trace.suite.seed);
  json.key("scale");
  json.value(trace.suite.scale);
  json.end_object();
  json.key("arrival");
  json.begin_object();
  json.key("mode");
  json.value(trace.arrival.mode);
  json.key("rate_rps");
  json.value(trace.arrival.rate_rps);
  json.key("zipf_skew");
  json.value(trace.arrival.zipf_skew);
  json.key("hism_fraction");
  json.value(trace.arrival.hism_fraction);
  json.key("alt_config_fraction");
  json.value(trace.arrival.alt_config_fraction);
  json.key("burst_on_us");
  json.value(trace.arrival.burst_on_us);
  json.key("burst_off_us");
  json.value(trace.arrival.burst_off_us);
  json.key("burst_multiplier");
  json.value(trace.arrival.burst_multiplier);
  json.key("heavytail_alpha");
  json.value(trace.arrival.heavytail_alpha);
  json.end_object();
  json.key("configs");
  json.begin_array();
  for (const ConfigSpec& spec : trace.configs) {
    json.begin_object();
    json.key("section");
    json.value(static_cast<u64>(spec.section));
    json.key("stm_bandwidth");
    json.value(static_cast<u64>(spec.stm_bandwidth));
    json.key("stm_lines");
    json.value(static_cast<u64>(spec.stm_lines));
    json.end_object();
  }
  json.end_array();
  json.key("matrices");
  json.value(static_cast<u64>(trace.matrix_count));
  json.key("requests");
  json.begin_array();
  for (const Request& request : trace.requests) {
    json.begin_object();
    json.key("id");
    json.value(static_cast<u64>(request.id));
    json.key("matrix");
    json.value(static_cast<u64>(request.matrix));
    json.key("kernel");
    json.value(kernel_name(request.kernel));
    json.key("config");
    json.value(static_cast<u64>(request.config));
    json.key("arrival_us");
    json.value(request.arrival_us);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream out = open_output_file(path);
  JsonWriter json(out);
  write_trace_json(json, trace);
  out << '\n';
}

std::optional<Trace> parse_trace(const JsonValue& document, std::string* error) {
  if (!document.is_object()) {
    set_error(error, "trace is not a JSON object");
    return std::nullopt;
  }
  const JsonValue* schema = document.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != kSchema) {
    set_error(error, "missing or wrong schema tag (expected \"smtu-trace-v1\")");
    return std::nullopt;
  }

  Trace trace;
  if (!read_uint(document, "seed", trace.seed, error)) return std::nullopt;
  const JsonValue* set = document.find("set");
  if (set == nullptr || !set->is_string()) {
    set_error(error, "missing \"set\" name");
    return std::nullopt;
  }
  trace.set = set->as_string();
  if (!suite::is_dsab_set(trace.set)) {
    set_error(error, "\"set\" is not locality, anz or size");
    return std::nullopt;
  }
  if (const JsonValue* suite = document.find("suite"); suite != nullptr) {
    if (!suite->is_object()) {
      set_error(error, "\"suite\" is not an object");
      return std::nullopt;
    }
    if (!read_uint(*suite, "seed", trace.suite.seed, error) ||
        !read_number(*suite, "scale", trace.suite.scale, error)) {
      if (error != nullptr) error->insert(0, "suite ");
      return std::nullopt;
    }
  }
  if (!suite::valid_scale(trace.suite.scale)) {
    set_error(error, "suite \"scale\" is not in (0, 1]");
    return std::nullopt;
  }
  if (const JsonValue* arrival = document.find("arrival"); arrival != nullptr) {
    if (!arrival->is_object()) {
      set_error(error, "\"arrival\" is not an object");
      return std::nullopt;
    }
    if (!read_arrival(*arrival, trace.arrival, error)) {
      if (error != nullptr) error->insert(0, "arrival ");
      return std::nullopt;
    }
  }

  const JsonValue* configs = document.find("configs");
  if (configs == nullptr || !configs->is_array() || configs->size() == 0) {
    set_error(error, "missing \"configs\" variant table");
    return std::nullopt;
  }
  trace.configs.reserve(configs->size());
  for (const JsonValue& item : configs->items()) {
    const usize index = trace.configs.size();
    if (!item.is_object()) {
      set_error(error, format("config %zu: not an object", index));
      return std::nullopt;
    }
    ConfigSpec spec;
    if (!read_uint(item, "section", spec.section, error) ||
        !read_uint(item, "stm_bandwidth", spec.stm_bandwidth, error) ||
        !read_uint(item, "stm_lines", spec.stm_lines, error)) {
      if (error != nullptr) error->insert(0, format("config %zu: ", index));
      return std::nullopt;
    }
    if (const char* invalid = invalid_config_field(spec); invalid != nullptr) {
      set_error(error, format("config %zu: %s", index, invalid));
      return std::nullopt;
    }
    trace.configs.push_back(spec);
  }
  if (!read_uint(document, "matrices", trace.matrix_count, error)) return std::nullopt;
  if (trace.matrix_count != suite::kSetMatrices) {
    set_error(error, format("\"matrices\" is not %u, the size of a D-SAB set",
                            suite::kSetMatrices));
    return std::nullopt;
  }

  const JsonValue* requests = document.find("requests");
  if (requests == nullptr || !requests->is_array()) {
    set_error(error, "missing \"requests\" array");
    return std::nullopt;
  }
  u64 previous_arrival = 0;
  trace.requests.reserve(requests->size());
  for (const JsonValue& item : requests->items()) {
    if (!item.is_object()) {
      set_error(error, "request is not an object");
      return std::nullopt;
    }
    // Defaults: the request's position as its id; out-of-range indices, so
    // a missing matrix or config is rejected below.
    Request request;
    request.id = static_cast<u32>(trace.requests.size());
    request.matrix = trace.matrix_count;
    request.config = static_cast<u32>(trace.configs.size());
    if (!read_uint(item, "id", request.id, error) ||
        !read_uint(item, "matrix", request.matrix, error) ||
        !read_uint(item, "config", request.config, error) ||
        !read_uint(item, "arrival_us", request.arrival_us, error)) {
      if (error != nullptr) error->insert(0, format("request %u: ", request.id));
      return std::nullopt;
    }
    if (request.matrix >= trace.matrix_count) {
      set_error(error, format("request %u: matrix index out of range", request.id));
      return std::nullopt;
    }
    const JsonValue* kernel = item.find("kernel");
    if (kernel == nullptr || !kernel->is_string() ||
        !kernel_from_name(kernel->as_string(), request.kernel)) {
      set_error(error, format("request %u: unknown kernel", request.id));
      return std::nullopt;
    }
    if (request.config >= trace.configs.size()) {
      set_error(error, format("request %u: config index out of range", request.id));
      return std::nullopt;
    }
    if (request.arrival_us < previous_arrival) {
      set_error(error, format("request %u: arrival_us decreases", request.id));
      return std::nullopt;
    }
    previous_arrival = request.arrival_us;
    trace.requests.push_back(request);
  }
  if (trace.requests.empty()) {
    set_error(error, "trace has no requests");
    return std::nullopt;
  }
  return trace;
}

std::optional<Trace> load_trace_file(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    set_error(error, "cannot open trace " + path);
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  std::string message;
  const std::optional<JsonValue> document = parse_json(text.view(), &message);
  std::optional<Trace> trace;
  if (document.has_value()) trace = parse_trace(*document, &message);
  if (!trace.has_value()) set_error(error, "trace " + path + ": " + message);
  return trace;
}

}  // namespace smtu::serve
