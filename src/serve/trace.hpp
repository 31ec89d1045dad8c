// Request traces: the seeded open-loop arrival generator and the
// `smtu-trace-v1` record/replay format (docs/SERVING.md).
//
// A trace is self-contained: it names the D-SAB suite set (with seed and
// scale, so the matrices regenerate bit-identically), the machine-config
// variant table, the arrival-process parameters it was generated from, and
// the request list itself. Replaying a trace therefore reproduces the exact
// same workload on any machine — the generator parameters ride along only as
// provenance; replay never re-samples.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"
#include "suite/dsab.hpp"
#include "support/json.hpp"

namespace smtu::serve {

// Open-loop arrival processes (all inter-arrival times in integer virtual
// microseconds, nondecreasing):
//   * poisson:   exponential gaps at `rate_rps`.
//   * bursty:    on/off modulated Poisson — `burst_multiplier` x the base
//                rate during `burst_on_us` windows, 1/5 of it during
//                `burst_off_us` windows.
//   * heavytail: bounded-Pareto gaps (tail index `heavytail_alpha`, mean
//                matched to `rate_rps`, capped at 100x the mean gap).
struct ArrivalSpec {
  std::string mode = "poisson";  // poisson | bursty | heavytail
  double rate_rps = 20000.0;     // mean arrival rate, requests per virtual second
  // Matrix popularity: rank r (0-based, over a seeded permutation of the
  // suite set) is drawn with probability proportional to 1/(r+1)^zipf_skew.
  double zipf_skew = 1.0;
  // Kernel and config mix.
  double hism_fraction = 0.75;       // remaining requests use the CRS kernel
  double alt_config_fraction = 0.1;  // probability of a non-default variant
  // bursty parameters.
  u64 burst_on_us = 2000;
  u64 burst_off_us = 8000;
  double burst_multiplier = 4.0;
  // heavytail parameter (must be > 1 so the mean exists).
  double heavytail_alpha = 1.5;
};

struct GeneratorOptions {
  u64 seed = 0x5E12E5EEDull;     // arrival-process seed (not the suite seed)
  std::string set = "locality";  // which D-SAB set the requests draw from
  suite::SuiteOptions suite;     // seed + scale of the matrix suite
  u32 requests = 300;
  ArrivalSpec arrival;
};

struct Trace {
  u64 seed = 0;
  std::string set;
  suite::SuiteOptions suite;
  ArrivalSpec arrival;
  std::vector<ConfigSpec> configs;
  u32 matrix_count = 0;  // size of the suite set the indices refer to
  std::vector<Request> requests;
};

// True for the arrival modes ArrivalSpec names: poisson, bursty, heavytail.
bool valid_arrival_mode(std::string_view mode);
// True for a rate_rps the generator accepts: a positive finite number.
bool valid_rate(double rate_rps);
// True for a zipf_skew the generator accepts: a finite number.
bool valid_zipf_skew(double skew);
// True for a hism_fraction or alt_config_fraction the generator accepts: a
// probability, i.e. a number in [0, 1].
bool valid_fraction(double fraction);

// Deterministic in options: same options, same trace, on any host.
Trace generate_trace(const GeneratorOptions& options);

// Serializes the complete smtu-trace-v1 document.
void write_trace_json(JsonWriter& json, const Trace& trace);
// Writes the document plus a trailing newline to `path`; a path that cannot
// be opened prints "cannot open <path>" and exits with status 2.
void write_trace_file(const std::string& path, const Trace& trace);

// Parses an smtu-trace-v1 document. Returns nullopt (and fills `error` when
// non-null) on schema violations: wrong schema tag, an integer field that is
// not an unsigned integer of its width, a suite or arrival member that is
// not an object, a suite scale or arrival parameter that is not a number,
// an arrival mode other than poisson, bursty or heavytail, a set the suite
// does not have, a suite scale outside (0, 1], a matrix count other than a
// set's size, out-of-range matrix or config indices, a config the machine
// cannot run, unknown kernel names, or decreasing arrival times.
std::optional<Trace> parse_trace(const JsonValue& document, std::string* error = nullptr);
// Reads and parses `path`. Returns nullopt (and fills `error` when non-null,
// prefixed with the path) when the file cannot be read, is not JSON, or is
// not a valid trace.
std::optional<Trace> load_trace_file(const std::string& path, std::string* error = nullptr);

}  // namespace smtu::serve
