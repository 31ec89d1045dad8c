// The serving engine (src/serve, docs/SERVING.md): trace record/replay
// round-trips, parse validation, the virtual-time scheduler's dedup /
// admission / shedding semantics, and the determinism contract — the
// deterministic report fragment must be bit-identical across -j values and
// across a write->parse trace round-trip. The checked-in benchmark trace
// (SMTU_TRACE_DIR, injected by tests/CMakeLists.txt) is held byte-stable.
// The smtu_serve binary (SMTU_SERVE_BIN, injected the same way) must turn
// every command-line mistake (an unrunnable trace and an output path that
// cannot be written included) into a diagnostic and exit status 2.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "kernels/staging.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "testing.hpp"
#include "vsim/program_cache.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu::serve {
namespace {

constexpr const char* kCheckedInTrace = SMTU_TRACE_DIR "/serve_zipf_scale005.json";

std::string trace_to_string(const Trace& trace) {
  std::ostringstream out;
  JsonWriter json(out);
  write_trace_json(json, trace);
  out << '\n';  // write_trace_file appends the same newline
  return out.str();
}

std::optional<Trace> parse_string(const std::string& text, std::string* error = nullptr) {
  const std::optional<JsonValue> document = parse_json(text, error);
  if (!document.has_value()) return std::nullopt;
  return parse_trace(*document, error);
}

// A hand-built trace small enough to mutate into every invalid shape.
Trace tiny_trace() {
  Trace trace;
  trace.seed = 7;
  trace.set = "locality";
  trace.matrix_count = suite::kSetMatrices;
  trace.configs.push_back(ConfigSpec{});
  for (u32 id = 0; id < 3; ++id) {
    Request request;
    request.id = id;
    request.matrix = id;
    request.kernel = Kernel::kHism;
    request.config = 0;
    request.arrival_us = 10 * id;
    trace.requests.push_back(request);
  }
  return trace;
}

GeneratorOptions small_generator() {
  GeneratorOptions options;
  options.requests = 40;
  options.suite.scale = 0.02;
  return options;
}

// Everything before the "host" section — schema, trace echo, options echo,
// and the whole "virtual" section — is the deterministic report fragment.
std::string deterministic_fragment(const Trace& trace, const ServeOptions& options,
                                   const ServeReport& report) {
  std::ostringstream out;
  JsonWriter json(out);
  write_serve_report_json(json, trace, options, report);
  const std::string text = out.str();
  const auto host = text.find("\"host\"");
  EXPECT_NE(host, std::string::npos) << "report has no host section";
  return host == std::string::npos ? text : text.substr(0, host);
}

// ---- trace generation and record/replay ------------------------------------

TEST(ServeTrace, GenerationIsDeterministic) {
  const GeneratorOptions options = small_generator();
  const Trace a = generate_trace(options);
  const Trace b = generate_trace(options);
  EXPECT_EQ(trace_to_string(a), trace_to_string(b));

  GeneratorOptions reseeded = options;
  reseeded.seed ^= 1;
  EXPECT_NE(trace_to_string(a), trace_to_string(generate_trace(reseeded)));
}

TEST(ServeTrace, ArrivalsAreNondecreasingInEveryMode) {
  for (const char* mode : {"poisson", "bursty", "heavytail"}) {
    GeneratorOptions options = small_generator();
    options.arrival.mode = mode;
    const Trace trace = generate_trace(options);
    ASSERT_EQ(trace.requests.size(), options.requests);
    u64 previous = 0;
    for (const Request& request : trace.requests) {
      EXPECT_GE(request.arrival_us, previous) << mode;
      previous = request.arrival_us;
      EXPECT_LT(request.matrix, trace.matrix_count) << mode;
      EXPECT_LT(request.config, trace.configs.size()) << mode;
    }
  }
}

TEST(ServeTraceDeathTest, GeneratorRejectsARateThatIsNotPositiveFinite) {
  // The command line rejects these rates; a library caller that passes one
  // anyway stops before a gap is divided by it.
  for (const double rate : {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()}) {
    GeneratorOptions options = small_generator();
    options.arrival.rate_rps = rate;
    EXPECT_DEATH(generate_trace(options), "positive finite rate_rps") << rate;
  }
}

TEST(ServeTraceDeathTest, GeneratorRejectsASkewOrFractionItCannotHonour) {
  // The command line rejects these too. A non-finite skew would be written
  // as null, which replay rejects; a fraction outside [0, 1] is no
  // probability.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double skew : {kNan, kInf, -kInf}) {
    GeneratorOptions options = small_generator();
    options.arrival.zipf_skew = skew;
    EXPECT_DEATH(generate_trace(options), "finite zipf_skew") << skew;
  }
  for (const double fraction : {-3.0, 1.5, kNan, kInf}) {
    GeneratorOptions hism = small_generator();
    hism.arrival.hism_fraction = fraction;
    EXPECT_DEATH(generate_trace(hism), "alt_config_fraction in \\[0, 1\\]") << fraction;
    GeneratorOptions alt = small_generator();
    alt.arrival.alt_config_fraction = fraction;
    EXPECT_DEATH(generate_trace(alt), "alt_config_fraction in \\[0, 1\\]") << fraction;
  }
}

TEST(ServeTrace, JsonRoundTripIsByteIdentical) {
  const Trace trace = generate_trace(small_generator());
  const std::string first = trace_to_string(trace);
  std::string error;
  const std::optional<Trace> parsed = parse_string(first, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(trace_to_string(*parsed), first);
}

TEST(ServeTrace, CheckedInTraceIsByteStable) {
  std::ifstream in(kCheckedInTrace);
  ASSERT_TRUE(in.is_open()) << kCheckedInTrace;
  std::ostringstream text;
  text << in.rdbuf();
  const Trace trace = load_trace_file(kCheckedInTrace).value();
  EXPECT_EQ(trace_to_string(trace), text.str())
      << "re-rendering the checked-in trace changed its bytes; regenerate "
         "bench/traces and the bench/baselines serve reports together";
}

TEST(ServeTrace, SeedsBeyondDoublePrecisionRoundTripExactly) {
  // 2^60 + 3 has no exact double; a rounded seed would regenerate a
  // different suite of the same size on replay.
  Trace trace = tiny_trace();
  trace.seed = (u64{1} << 60) + 3;
  trace.suite.seed = (u64{1} << 60) + 3;
  const std::string text = trace_to_string(trace);
  std::string error;
  const std::optional<Trace> parsed = parse_string(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->seed, trace.seed);
  EXPECT_EQ(parsed->suite.seed, trace.suite.seed);
  EXPECT_EQ(trace_to_string(*parsed), text);
}

TEST(ServeTrace, ParseRejectsFieldsThatAreNotUnsignedIntegers) {
  const std::string valid = trace_to_string(tiny_trace());
  // Each edit leaves valid JSON whose field is negative, fractional, too
  // wide for its type, or not a number at all.
  const std::pair<const char*, const char*> edits[] = {
      {"\"seed\":7,", "\"seed\":7.5,"},
      {"\"burst_on_us\":2000", "\"burst_on_us\":true"},
      {"\"section\":64", "\"section\":4294967296"},
      {"\"matrices\":10", "\"matrices\":-10"},
      {"\"id\":1,", "\"id\":\"1\","},
      {"\"arrival_us\":10", "\"arrival_us\":10.5"},
  };
  for (const auto& [from, to] : edits) {
    std::string text = valid;
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, std::string_view(from).size(), to);
    std::string error;
    EXPECT_FALSE(parse_string(text, &error).has_value()) << to;
    EXPECT_NE(error.find("is not an unsigned"), std::string::npos) << to << ": " << error;
  }
}

TEST(ServeTrace, ParseRejectsConfigsTheMachineCannotRun) {
  // Past the parser, each of these would abort the server: the suite
  // fields in build_dsab_set or at the set-size check, the configs in the
  // HiSM builder, the CRS kernel or the STM.
  const std::string valid = trace_to_string(tiny_trace());
  const std::pair<const char*, const char*> suite_edits[] = {
      {"\"set\":\"locality\"", "\"set\":\"bogus\""},
      {"\"scale\":1", "\"scale\":2.0"},
      {"\"scale\":1", "\"scale\":0.0"},
      {"\"matrices\":10", "\"matrices\":12"},
      {"\"matrices\":10", "\"matrices\":0"},
  };
  for (const auto& [from, to] : suite_edits) {
    std::string text = valid;
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, std::string_view(from).size(), to);
    const std::string field(to, std::string_view(to).find(':'));
    std::string error;
    EXPECT_FALSE(parse_string(text, &error).has_value()) << to;
    EXPECT_NE(error.find(field), std::string::npos) << to << ": " << error;
  }

  struct Case {
    ConfigSpec spec;
    const char* field;
  };
  const Case cases[] = {
      {{0, 4, 4}, "\"section\""},        {{48, 4, 4}, "\"section\""},
      {{300, 4, 4}, "\"section\""},      {{64, 4, 0}, "\"stm_lines\""},
      {{64, 0, 4}, "\"stm_bandwidth\""},
  };
  for (const Case& c : cases) {
    for (const usize index : {usize{0}, usize{1}}) {
      Trace trace = tiny_trace();
      trace.configs.push_back(ConfigSpec{});
      trace.configs[index] = c.spec;
      std::string error;
      EXPECT_FALSE(parse_string(trace_to_string(trace), &error).has_value()) << c.field;
      EXPECT_NE(error.find("config " + std::to_string(index) + ": " + c.field),
                std::string::npos)
          << error;
    }
  }
}

// `text` with the scalar value of its first `"key":` member replaced by
// `value`.
std::string with_member(std::string text, const std::string& key, std::string_view value) {
  const std::string name = "\"" + key + "\":";
  const auto at = text.find(name);
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return text;
  const auto begin = at + name.size();
  text.replace(begin, text.find_first_of(",}", begin) - begin, value);
  return text;
}

TEST(ServeTrace, ParseRejectsSuiteAndArrivalValuesOfTheWrongKind) {
  // Replay never re-samples the arrival process, but a value of the wrong
  // kind is a malformed trace all the same; a suite scale that is not a
  // number would otherwise replay the full-scale suite.
  const std::string valid = trace_to_string(tiny_trace());
  const std::tuple<const char*, const char*, const char*> cases[] = {
      {"scale", "\"0.05\"", "suite \"scale\" is not a number"},
      {"scale", "true", "suite \"scale\" is not a number"},
      {"rate_rps", "\"20000\"", "arrival \"rate_rps\" is not a number"},
      {"zipf_skew", "null", "arrival \"zipf_skew\" is not a number"},
      {"hism_fraction", "[]", "arrival \"hism_fraction\" is not a number"},
      {"alt_config_fraction", "\"0.1\"", "arrival \"alt_config_fraction\" is not a number"},
      {"burst_multiplier", "{}", "arrival \"burst_multiplier\" is not a number"},
      {"heavytail_alpha", "\"1.5\"", "arrival \"heavytail_alpha\" is not a number"},
      {"burst_off_us", "\"8000\"", "arrival \"burst_off_us\" is not an unsigned"},
      {"mode", "\"steady\"", "arrival \"mode\" is not poisson, bursty or heavytail"},
      {"mode", "3", "arrival \"mode\" is not poisson, bursty or heavytail"},
  };
  for (const auto& [key, value, message] : cases) {
    std::string error;
    EXPECT_FALSE(parse_string(with_member(valid, key, value), &error).has_value())
        << key << ":" << value;
    EXPECT_NE(error.find(message), std::string::npos) << key << ":" << value << ": " << error;
  }
  // A suite or arrival member that is not an object. The original object
  // stays in the document under a key the parser ignores, so the JSON is
  // still valid.
  for (const std::string key : {"suite", "arrival"}) {
    std::string text = valid;
    const std::string from = "\"" + key + "\":{";
    const auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << key;
    text.replace(at, from.size(), "\"" + key + "\":5,\"unused\":{");
    std::string error;
    EXPECT_FALSE(parse_string(text, &error).has_value()) << key;
    EXPECT_NE(error.find("\"" + key + "\" is not an object"), std::string::npos) << error;
  }
  // Every arrival mode the generator knows still parses.
  for (const char* mode : {"\"poisson\"", "\"bursty\"", "\"heavytail\""}) {
    std::string error;
    EXPECT_TRUE(parse_string(with_member(valid, "mode", mode), &error).has_value()) << error;
  }
}

TEST(ServeTrace, LoadReportsUnreadableAndInvalidFiles) {
  std::string error;
  EXPECT_FALSE(load_trace_file("/nonexistent/trace.json", &error).has_value());
  EXPECT_NE(error.find("cannot open trace /nonexistent/trace.json"), std::string::npos) << error;

  Trace trace = tiny_trace();
  trace.configs[0].stm_lines = 0;
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("smtu_test_bad_trace_" + std::to_string(::getpid()) + ".json"))
                               .string();
  std::ofstream(path) << trace_to_string(trace);
  EXPECT_FALSE(load_trace_file(path, &error).has_value());
  EXPECT_EQ(error, "trace " + path + ": config 0: \"stm_lines\" is 0");
  std::filesystem::remove(path);
}

TEST(ServeTrace, ParseRejectsWrongSchema) {
  std::string text = trace_to_string(tiny_trace());
  const auto at = text.find("smtu-trace-v1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 13, "smtu-trace-v9");
  std::string error;
  EXPECT_FALSE(parse_string(text, &error).has_value());
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(ServeTrace, ParseRejectsUnknownKernel) {
  std::string text = trace_to_string(tiny_trace());
  // "hism" quoted appears only as a request's kernel value ("hism_fraction"
  // is not followed by a closing quote after the m).
  const auto at = text.find("\"hism\"");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 6, "\"warp\"");
  std::string error;
  EXPECT_FALSE(parse_string(text, &error).has_value());
  EXPECT_NE(error.find("kernel"), std::string::npos) << error;
}

TEST(ServeTrace, ParseRejectsMatrixIndexOutOfRange) {
  Trace trace = tiny_trace();
  trace.requests[1].matrix = trace.matrix_count;
  std::string error;
  EXPECT_FALSE(parse_string(trace_to_string(trace), &error).has_value());
  EXPECT_NE(error.find("matrix index"), std::string::npos) << error;
}

TEST(ServeTrace, ParseRejectsConfigIndexOutOfRange) {
  Trace trace = tiny_trace();
  trace.requests[2].config = static_cast<u32>(trace.configs.size());
  std::string error;
  EXPECT_FALSE(parse_string(trace_to_string(trace), &error).has_value());
  EXPECT_NE(error.find("config index"), std::string::npos) << error;
}

TEST(ServeTrace, ParseRejectsDecreasingArrivals) {
  Trace trace = tiny_trace();
  trace.requests[2].arrival_us = trace.requests[1].arrival_us - 1;
  std::string error;
  EXPECT_FALSE(parse_string(trace_to_string(trace), &error).has_value());
  EXPECT_NE(error.find("decreases"), std::string::npos) << error;
}

// The requests of `trace`, each rendered by `render` (which gets the
// request and returns its object text), in place of the request array the
// writer emits.
template <typename Render>
std::string with_requests(const Trace& trace, Render render) {
  std::string text = trace_to_string(trace);
  const std::string array = "\"requests\":[";
  const auto begin = text.find(array) + array.size();
  std::string items;
  for (const Request& request : trace.requests) {
    if (!items.empty()) items += ',';
    items += render(request);
  }
  text.replace(begin, text.rfind(']') - begin, items);
  return text;
}

std::string request_member(const Request& request, std::string_view name) {
  const std::string key = "\"" + std::string(name) + "\":";
  if (name == "id") return key + std::to_string(request.id);
  if (name == "matrix") return key + std::to_string(request.matrix);
  if (name == "kernel") return key + "\"" + kernel_name(request.kernel) + "\"";
  if (name == "config") return key + std::to_string(request.config);
  if (name == "arrival_us") return key + std::to_string(request.arrival_us);
  return key + "\"extra\"";  // any other name: a member the parser ignores
}

// A request object with its members in `order`.
std::string request_in_order(const Request& request, const std::vector<std::string_view>& order) {
  std::string object = "{";
  for (const std::string_view name : order) {
    if (object.size() > 1) object += ',';
    object += request_member(request, name);
  }
  return object + "}";
}

TEST(ServeTrace, ParseReadsRequestMembersInAnyOrder) {
  // The writer's order, every other order, an extra member anywhere, and a
  // missing id (the request's position) parse to the same trace.
  Trace trace = tiny_trace();
  trace.requests[1].kernel = Kernel::kCrs;
  trace.configs.push_back(ConfigSpec{64, 2, 2});
  trace.requests[2].config = 1;
  const std::string expected = trace_to_string(trace);
  const std::vector<std::vector<std::string_view>> orders = {
      {"id", "matrix", "kernel", "config", "arrival_us"},
      {"arrival_us", "config", "kernel", "matrix", "id"},
      {"matrix", "id", "kernel", "config", "arrival_us"},
      {"note", "id", "matrix", "kernel", "config", "arrival_us"},
      {"id", "matrix", "kernel", "config", "arrival_us", "note"},
      {"id", "matrix", "note", "kernel", "config", "arrival_us"},
      {"matrix", "kernel", "config", "arrival_us"},
  };
  for (const auto& order : orders) {
    const std::string text =
        with_requests(trace, [&](const Request& r) { return request_in_order(r, order); });
    std::string error;
    const std::optional<Trace> parsed = parse_string(text, &error);
    ASSERT_TRUE(parsed.has_value()) << text << ": " << error;
    EXPECT_EQ(trace_to_string(*parsed), expected) << text;
  }
}

TEST(ServeTrace, MisorderedRequestsReportTheSameErrors) {
  // Each bad field of request 1 gives the message it gives in the writer's
  // order, whichever order the members come in.
  const Trace trace = tiny_trace();
  struct Case {
    std::string_view member;  // replaced in request 1
    std::string_view value;
    const char* message;
  };
  const Case cases[] = {
      {"matrix", "-1", "request 1: \"matrix\" is not an unsigned 32-bit integer"},
      {"id", "\"1\"", "request 1: \"id\" is not an unsigned 32-bit integer"},
      {"arrival_us", "1.5", "request 1: \"arrival_us\" is not an unsigned 64-bit integer"},
      {"config", "7", "request 1: config index out of range"},
      {"matrix", "10", "request 1: matrix index out of range"},
      {"kernel", "\"warp\"", "request 1: unknown kernel"},
      {"kernel", "3", "request 1: unknown kernel"},
      {"arrival_us", "25", "request 2: arrival_us decreases"},
  };
  const std::vector<std::vector<std::string_view>> orders = {
      {"id", "matrix", "kernel", "config", "arrival_us"},
      {"arrival_us", "config", "kernel", "matrix", "id"},
      {"kernel", "note", "id", "arrival_us", "matrix", "config"},
  };
  for (const Case& c : cases) {
    for (const auto& order : orders) {
      const std::string text = with_requests(trace, [&](const Request& r) {
        std::string object = request_in_order(r, order);
        if (r.id != 1) return object;
        const std::string key = "\"" + std::string(c.member) + "\":";
        const auto begin = object.find(key) + key.size();
        object.replace(begin, object.find_first_of(",}", begin) - begin, c.value);
        return object;
      });
      std::string error;
      EXPECT_FALSE(parse_string(text, &error).has_value()) << text;
      EXPECT_EQ(error, c.message) << text;
    }
  }
}

// ---- the virtual-time scheduler in isolation -------------------------------

Request request_at(u32 id, u32 matrix, u64 arrival_us, Kernel kernel = Kernel::kHism,
                   u32 config = 0) {
  Request request;
  request.id = id;
  request.matrix = matrix;
  request.kernel = kernel;
  request.config = config;
  request.arrival_us = arrival_us;
  return request;
}

using KeyCycles = std::unordered_map<SimKey, u64, SimKeyHash>;

TEST(ServeVirtual, DuplicateInFlightKeysCoalesce) {
  // 10000 cycles at 1000 cycles/vus = 10 vus of service. The duplicate
  // arrives at t=4, mid-flight, and attaches: no worker, no extra cycles.
  const std::vector<Request> requests = {request_at(0, 0, 0), request_at(1, 0, 4)};
  const KeyCycles cycles = {{key_of(requests[0]), 10000}};
  const VirtualReport report = run_virtual(requests, cycles, ServeOptions{});

  EXPECT_EQ(report.simulated_requests, 1u);
  EXPECT_EQ(report.coalesced_requests, 1u);
  EXPECT_EQ(report.warm_requests, 0u);
  EXPECT_EQ(report.shed_requests, 0u);
  EXPECT_EQ(report.distinct_sims, 1u);
  EXPECT_EQ(report.sim_cycles, 10000u);
  EXPECT_EQ(report.offered_cycles, 20000u);

  EXPECT_EQ(report.outcomes[0].outcome, Outcome::kSimulated);
  EXPECT_EQ(report.outcomes[0].service_vus, 10u);
  EXPECT_EQ(report.outcomes[0].total_vus, 10u);
  EXPECT_EQ(report.outcomes[1].outcome, Outcome::kCoalesced);
  EXPECT_EQ(report.outcomes[1].total_vus, 6u);  // completes with the run at t=10
  EXPECT_EQ(report.makespan_vus, 10u);
}

TEST(ServeVirtual, CompletedKeysReplayWarmAtFlatCost) {
  const std::vector<Request> requests = {request_at(0, 0, 0), request_at(1, 0, 50)};
  const KeyCycles cycles = {{key_of(requests[0]), 10000}};
  ServeOptions options;
  options.replay_vus = 20;
  const VirtualReport report = run_virtual(requests, cycles, options);

  EXPECT_EQ(report.simulated_requests, 1u);
  EXPECT_EQ(report.warm_requests, 1u);
  EXPECT_EQ(report.coalesced_requests, 0u);
  EXPECT_EQ(report.sim_cycles, 10000u);  // the warm replay costs no cycles
  EXPECT_EQ(report.outcomes[1].outcome, Outcome::kWarm);
  EXPECT_EQ(report.outcomes[1].service_vus, 20u);
  EXPECT_EQ(report.outcomes[1].total_vus, 20u);
}

TEST(ServeVirtual, FullQueueShedsArrivals) {
  // One worker, queue depth 1, distinct keys: the first request occupies the
  // worker, the second queues, the third is shed on arrival.
  const std::vector<Request> requests = {request_at(0, 0, 0), request_at(1, 1, 1),
                                         request_at(2, 2, 2)};
  KeyCycles cycles;
  for (const Request& request : requests) cycles[key_of(request)] = 1000000;
  ServeOptions options;
  options.dedup = false;
  options.virtual_workers = 1;
  options.queue_depth = 1;
  const VirtualReport report = run_virtual(requests, cycles, options);

  EXPECT_EQ(report.shed_requests, 1u);
  EXPECT_EQ(report.admitted_requests, 2u);
  EXPECT_EQ(report.max_queue_depth, 1u);
  EXPECT_EQ(report.outcomes[2].outcome, Outcome::kShed);
  EXPECT_EQ(report.outcomes[2].total_vus, 0u);
  // The queued request starts when the first completes at t=1000.
  EXPECT_EQ(report.outcomes[1].queue_vus, 999u);
  EXPECT_EQ(report.outcomes[1].total_vus, 1999u);
  // Shed requests do not contribute latency samples.
  EXPECT_EQ(report.total.count, 2u);
}

TEST(ServeVirtual, NoDedupSimulatesEveryRequest) {
  const std::vector<Request> requests = {request_at(0, 0, 0), request_at(1, 0, 100),
                                         request_at(2, 0, 200)};
  const KeyCycles cycles = {{key_of(requests[0]), 5000}};
  ServeOptions options;
  options.dedup = false;
  const VirtualReport report = run_virtual(requests, cycles, options);

  EXPECT_EQ(report.simulated_requests, 3u);
  EXPECT_EQ(report.warm_requests, 0u);
  EXPECT_EQ(report.coalesced_requests, 0u);
  EXPECT_EQ(report.distinct_sims, 1u);
  EXPECT_EQ(report.sim_cycles, 15000u);  // dedup off: every request pays
  EXPECT_EQ(report.offered_cycles, 15000u);
}

TEST(ServeVirtual, ClosedLoopAdmitsEverythingAndFansOut) {
  // Two clients over four identical requests: client issue order is
  // simulate, coalesce (both outstanding), then — after the shared run
  // completes and fans out two follow-ups — warm, coalesce-on-warm.
  const std::vector<Request> requests = {request_at(0, 0, 0), request_at(1, 0, 0),
                                         request_at(2, 0, 0), request_at(3, 0, 0)};
  const KeyCycles cycles = {{key_of(requests[0]), 10000}};
  ServeOptions options;
  options.closed_loop = 2;
  options.queue_depth = 1;  // closed loop never sheds regardless of depth
  const VirtualReport report = run_virtual(requests, cycles, options);

  EXPECT_EQ(report.shed_requests, 0u);
  EXPECT_EQ(report.admitted_requests, 4u);
  EXPECT_EQ(report.simulated_requests, 1u);
  EXPECT_EQ(report.coalesced_requests, 2u);
  EXPECT_EQ(report.warm_requests, 1u);
}

TEST(ServeVirtualDeathTest, ZeroWorkersAbortsBeforeScheduling) {
  // The command line rejects --workers=0; a library caller that passes it
  // anyway trips the scheduler's precondition, not its end-of-run invariant.
  const std::vector<Request> requests = {request_at(0, 0, 0)};
  const KeyCycles cycles = {{key_of(requests[0]), 10000}};
  ServeOptions options;
  options.virtual_workers = 0;
  EXPECT_DEATH(run_virtual(requests, cycles, options), "needs a worker");
}

TEST(ServeVirtual, LatencySummaryUsesHistogramRankConvention) {
  // rank = ceil(q% * count), 1-based, over the exact sorted values — the
  // telemetry::LatencyHistogram convention without bucketing error.
  const LatencySummary summary =
      summarize_latencies({100, 10, 30, 20, 50, 40, 60, 80, 70, 90});
  EXPECT_EQ(summary.count, 10u);
  EXPECT_EQ(summary.min, 10u);
  EXPECT_EQ(summary.max, 100u);
  EXPECT_DOUBLE_EQ(summary.mean, 55.0);
  EXPECT_EQ(summary.p50, 50u);   // rank ceil(5.0)  = 5
  EXPECT_EQ(summary.p90, 90u);   // rank ceil(9.0)  = 9
  EXPECT_EQ(summary.p95, 100u);  // rank ceil(9.5)  = 10
  EXPECT_EQ(summary.p99, 100u);

  const LatencySummary empty = summarize_latencies({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0u);

  // Seeded vectors with many repeated values against a full sort, at sizes
  // where the ranks coincide (1, 2) or sit on either side of a whole
  // percent (99, 100, 101), and at a serve_zipf round's 40,000.
  Rng rng(0x1a7e);
  for (const usize size : {usize{1}, usize{2}, usize{99}, usize{100}, usize{101}, usize{40000}}) {
    for (const u64 distinct : {u64{1}, u64{3}, u64{50}, u64{1} << 40}) {
      std::vector<u64> values(size);
      for (u64& value : values) value = 20 + rng.below(distinct);
      std::vector<u64> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      const auto at = [&sorted](u64 q) {
        const u64 rank = std::max<u64>(1, (q * sorted.size() + 99) / 100);  // ceil, 1-based
        return sorted[rank - 1];
      };
      u64 sum = 0;
      for (const u64 value : sorted) sum += value;
      const LatencySummary got = summarize_latencies(values);
      SCOPED_TRACE(::testing::Message() << "size " << size << ", distinct " << distinct);
      EXPECT_EQ(got.count, size);
      EXPECT_EQ(got.min, sorted.front());
      EXPECT_EQ(got.max, sorted.back());
      EXPECT_EQ(got.mean, static_cast<double>(sum) / static_cast<double>(size));
      EXPECT_EQ(got.p50, at(50));
      EXPECT_EQ(got.p90, at(90));
      EXPECT_EQ(got.p95, at(95));
      EXPECT_EQ(got.p99, at(99));
    }
  }
}

// Synthetic cycle counts that vary by key: 50,000 to 449,999 cycles, so a
// fresh run takes 50 to 449 virtual microseconds.
KeyCycles synthetic_cycles(const std::vector<Request>& requests) {
  KeyCycles cycles;
  for (const Request& request : requests) {
    const SimKey key = key_of(request);
    const u64 mix = (u64{key.matrix} * 2654435761u) ^ (u64{key.config} * 40503u) ^
                    (static_cast<u64>(key.kernel) * 97u);
    cycles[key] = 50000 + mix % 400000;
  }
  return cycles;
}

TEST(ServeVirtual, ReplaysMatchTheRecordedDigest) {
  // Every counter, latency summary and per-request outcome of 216
  // replays: traces of three seeds at Zipf skews 0, 1 and 2, served with
  // dedup on and off, admission queues of 4, 64 and unbounded depth, open
  // and closed loop, and one or four workers. The digest was recorded on
  // the scheduler that kept its state in hash containers keyed by SimKey.
  vsim::SimHash digest;
  u64 shed_runs = 0;
  for (const u64 seed : {u64{1}, u64{77}, u64{104729}}) {
    for (const double skew : {0.0, 1.0, 2.0}) {
      GeneratorOptions generator = small_generator();
      generator.seed = seed;
      generator.requests = 600;
      generator.arrival.zipf_skew = skew;
      generator.arrival.alt_config_fraction = 0.3;
      const Trace trace = generate_trace(generator);
      const KeyCycles cycles = synthetic_cycles(trace.requests);
      for (const bool dedup : {true, false}) {
        for (const u32 depth : {4u, 64u, std::numeric_limits<u32>::max()}) {
          for (const u32 closed_loop : {0u, 3u}) {
            for (const u32 workers : {1u, 4u}) {
              ServeOptions options;
              options.dedup = dedup;
              options.queue_depth = depth;
              options.closed_loop = closed_loop;
              options.virtual_workers = workers;
              const VirtualReport v = run_virtual(trace.requests, cycles, options);
              shed_runs += v.shed_requests > 0 ? 1 : 0;
              for (const u64 counter :
                   {v.admitted_requests, v.shed_requests, v.coalesced_requests,
                    v.warm_requests, v.simulated_requests, v.distinct_sims,
                    v.max_queue_depth, v.sim_cycles, v.offered_cycles, v.first_arrival_vus,
                    v.makespan_vus}) {
                digest.update_u64(counter);
              }
              for (const LatencySummary* s : {&v.queue, &v.service, &v.total}) {
                for (const u64 field : {s->count, s->min, s->max, std::bit_cast<u64>(s->mean),
                                        s->p50, s->p90, s->p95, s->p99}) {
                  digest.update_u64(field);
                }
              }
              digest.update_u64(v.outcomes.size());
              for (const RequestOutcome& out : v.outcomes) {
                digest.update_u64(out.id);
                digest.update_u64(static_cast<u64>(out.outcome));
                digest.update_u64(out.queue_vus);
                digest.update_u64(out.service_vus);
                digest.update_u64(out.total_vus);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(shed_runs, 0u) << "no replay sheds, so admission control goes unpinned";
  EXPECT_EQ(digest.hex(), "4a8712da66f2eaba14e3268a6eef2b3a")
      << "the virtual replay changed; if that is intended, the new digest is the first value";
}

TEST(ServeReportJson, BytesMatchTheRecordedDigest) {
  // The whole smtu-serve-v1 document for a fixed host section and a replay
  // whose two-deep queue sheds, so every outcome's record appears. The
  // process-wide cache counters the host section reads are cleared first.
  // The digest was recorded on the writer that emitted each record through
  // JsonWriter's key and value calls.
  GeneratorOptions generator = small_generator();
  generator.requests = 400;
  generator.arrival.alt_config_fraction = 0.3;
  const Trace trace = generate_trace(generator);
  ServeOptions options;
  options.queue_depth = 2;
  options.virtual_workers = 2;
  ServeReport report;
  report.virt = run_virtual(trace.requests, synthetic_cycles(trace.requests), options);
  for (const Outcome outcome :
       {Outcome::kSimulated, Outcome::kCoalesced, Outcome::kWarm, Outcome::kShed}) {
    EXPECT_TRUE(std::any_of(report.virt.outcomes.begin(), report.virt.outcomes.end(),
                            [&](const RequestOutcome& out) { return out.outcome == outcome; }))
        << outcome_name(outcome);
  }
  report.host = HostReport{3, 17, 12345.678, 32400.5, 9876.25, vsim::SimCache::Stats{5, 2, 2}};
  vsim::ProgramCache::instance().clear();
  kernels::MatrixStageCache::instance().clear();

  std::ostringstream out;
  {
    JsonWriter json(out);
    write_serve_report_json(json, trace, options, report);
  }
  ASSERT_TRUE(parse_json(out.str()).has_value());
  vsim::SimHash digest;
  digest.update(out.str());
  EXPECT_EQ(digest.hex(), "eb6d2894129521f45bae3c6339169818")
      << "the report bytes changed; if that is intended, the new digest is the first value";
}

// ---- end to end: host execution + deterministic report ---------------------

TEST(ServeEndToEnd, ReportFragmentBitIdenticalAcrossJobs) {
  const Trace trace = generate_trace(small_generator());
  ServeOptions one;
  one.jobs = 1;
  ServeOptions two;
  two.jobs = 2;
  const std::string first = deterministic_fragment(trace, one, serve_trace(trace, one));
  const std::string second = deterministic_fragment(trace, two, serve_trace(trace, two));
  EXPECT_EQ(first, second)
      << "virtual-time report depends on the host ThreadPool width";
}

TEST(ServeEndToEnd, RoundTrippedTraceReplaysBitIdentically) {
  // The satellite contract: record a trace, replay the parsed copy, and the
  // deterministic report fragment matches the original run bit for bit.
  const Trace trace = generate_trace(small_generator());
  std::string error;
  const std::optional<Trace> parsed = parse_string(trace_to_string(trace), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const ServeOptions options;
  const std::string original = deterministic_fragment(trace, options, serve_trace(trace, options));
  const std::string replayed =
      deterministic_fragment(*parsed, options, serve_trace(*parsed, options));
  EXPECT_EQ(original, replayed);
}

TEST(ServeEndToEnd, SimCacheCountersCoverOneReplay) {
  // A cold replay into an empty cache directory simulates and stores every
  // distinct key; a second replay in the same process hits every one.
  const Trace trace = generate_trace(small_generator());
  const testing::TempDir dir("serve_sim_cache");
  ServeOptions options;
  options.sim_cache_dir = dir.str();

  const ServeReport cold = serve_trace(trace, options);
  const u64 keys = cold.virt.distinct_sims;
  ASSERT_GT(keys, 0u);
  ASSERT_TRUE(cold.host.sim_cache.has_value());
  EXPECT_EQ(cold.host.sim_cache->hits, 0u);
  EXPECT_EQ(cold.host.sim_cache->misses, keys);
  EXPECT_EQ(cold.host.sim_cache->stores, keys);

  const ServeReport warm = serve_trace(trace, options);
  ASSERT_TRUE(warm.host.sim_cache.has_value());
  EXPECT_EQ(warm.host.sim_cache->hits, keys);
  EXPECT_EQ(warm.host.sim_cache->misses, 0u);
  EXPECT_EQ(warm.host.sim_cache->stores, 0u);

  // The report carries the counters under "host", and null without a cache.
  const auto report_json = [&](const ServeOptions& opts, const ServeReport& report) {
    std::ostringstream out;
    JsonWriter json(out);
    write_serve_report_json(json, trace, opts, report);
    return parse_json(out.str()).value();
  };
  const JsonValue counted = report_json(options, warm);
  const JsonValue& counters = counted.at("host").at("sim_cache");
  EXPECT_EQ(counters.at("hits").as_u64(), keys);
  EXPECT_EQ(counters.at("misses").as_u64(), 0u);
  EXPECT_EQ(counters.at("stores").as_u64(), 0u);
  const ServeOptions uncached;
  const JsonValue none = report_json(uncached, serve_trace(trace, uncached));
  EXPECT_TRUE(none.at("host").at("sim_cache").is_null());
}

TEST(ServeEndToEnd, CheckedInTraceMeetsStructuralSpeedupFloor) {
  // The >=5x batched-vs-naive target is recorded as wall clock in
  // bench/baselines (nondeterministic, never gated). The deterministic
  // structure behind it is gated here: dedup must remove at least 5x of the
  // offered simulation work, and the host must run at most 1/5 of the
  // trace's requests as real simulations.
  const Trace trace = load_trace_file(kCheckedInTrace).value();
  const ServeOptions options;
  const ServeReport report = serve_trace(trace, options);

  EXPECT_GE(report.virt.offered_cycles, 5 * report.virt.sim_cycles);
  EXPECT_GE(trace.requests.size(), 5 * report.host.simulations);
  EXPECT_EQ(report.virt.shed_requests, 0u) << "the checked-in trace should not shed";
  EXPECT_EQ(report.virt.admitted_requests, trace.requests.size());
  EXPECT_EQ(report.virt.simulated_requests + report.virt.warm_requests +
                report.virt.coalesced_requests,
            trace.requests.size());
}

// ---- the smtu_serve command line -------------------------------------------

TEST(ServeCli, CommandLineMistakesExitWithCode2) {
  const std::string trace_out = "test_serve_cli_trace.json";
  const std::string replay = std::string("--replay=") + kCheckedInTrace;
  const std::string generate = "--generate --trace-out=" + trace_out;
  // Copies of the checked-in trace with a set the suite does not have, and
  // with a suite scale that is a string rather than a number.
  std::string checked_in;
  {
    std::ifstream in(kCheckedInTrace);
    std::ostringstream text;
    text << in.rdbuf();
    checked_in = text.str();
  }
  const std::string bad_trace = "test_serve_cli_bad_set.json";
  std::ofstream(bad_trace) << with_member(checked_in, "set", "\"bogus\"");
  const std::string string_scale_trace = "test_serve_cli_string_scale.json";
  std::ofstream(string_scale_trace) << with_member(checked_in, "scale", "\"0.05\"");
  const std::string missing_dir = "test_serve_cli_no_such_dir/out.json";
  // A regular file where the --sim-cache directory's parent should be.
  const std::string blocker = "test_serve_cli_blocker";
  std::ofstream(blocker) << "not a directory\n";
  const std::string blocked_cache = blocker + "/cache";
  // Each case: the arguments and the option its one-line diagnostic names.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "--generate or --replay"},
      {"--generate " + replay, "--generate or --replay"},
      {"--generate", "--trace-out"},
      {generate + " --jobs=-1", "option --jobs expects an integer in [0, "},
      {generate + " --scale=0", "option --scale expects a number in (0, 1]"},
      {generate + " --set=foo", "option --set expects locality, anz or size"},
      {generate + " --arrival=foo", "option --arrival expects poisson, bursty or heavytail"},
      {generate + " --requests=0", "option --requests expects an integer in [1, "},
      {generate + " --seed=-1", "option --seed expects an integer in [0, 18446744073709551615]"},
      {generate + " --rate=0", "option --rate expects a positive finite number"},
      {generate + " --rate=nan", "option --rate expects a positive finite number"},
      {generate + " --rate=-5", "option --rate expects a positive finite number"},
      {generate + " --zipf=nan", "option --zipf expects a finite number"},
      {generate + " --zipf=inf", "option --zipf expects a finite number"},
      {generate + " --hism-fraction=-3", "option --hism-fraction expects a number in [0, 1]"},
      {generate + " --hism-fraction=nan", "option --hism-fraction expects a number in [0, 1]"},
      {generate + " --alt-config-fraction=inf",
       "option --alt-config-fraction expects a number in [0, 1]"},
      {generate + " --alt-config-fraction=1.5",
       "option --alt-config-fraction expects a number in [0, 1]"},
      {replay + " --workers=0", "option --workers expects an integer in [1, "},
      {"--replay=" + bad_trace, "\"set\" is not locality, anz or size"},
      {"--replay=" + string_scale_trace, "suite \"scale\" is not a number"},
      {"--generate --trace-out=" + missing_dir, "cannot open " + missing_dir},
      {replay + " --json=" + missing_dir, "cannot open " + missing_dir},
      {replay + " --telemetry-json=" + missing_dir, "cannot open " + missing_dir},
      {replay + " --sim-cache=" + blocked_cache, "cannot create directory " + blocked_cache},
  };
  const std::string stderr_path = "test_serve_cli_stderr.txt";
  for (const auto& [args, needle] : cases) {
    SCOPED_TRACE("smtu_serve " + args);
    const std::string command =
        std::string(SMTU_SERVE_BIN) + " " + args + " > /dev/null 2> " + stderr_path;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 2);
    std::ifstream in(stderr_path);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find(needle), std::string::npos) << "stderr: " << text.str();
    EXPECT_FALSE(std::filesystem::exists(trace_out)) << "a failed run wrote a trace";
  }
  std::remove(stderr_path.c_str());
  std::remove(trace_out.c_str());
  std::remove(bad_trace.c_str());
  std::remove(string_scale_trace.c_str());
  std::remove(blocker.c_str());
}

}  // namespace
}  // namespace smtu::serve
