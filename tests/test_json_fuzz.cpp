// Seeded mutation fuzzing of parse_json over documents the writer really
// produces: a request trace, a sim-cache entry (with a profile embedded as an
// escaped string) and a nested serve report. A mutated document must come
// back as a value or as an error whose "at byte K" lies inside the input,
// never as a crash; an unmutated one must parse and re-render byte for byte.
// The readers above the JSON layer get the same mutations: a trace goes on
// through parse_trace, and a sim-cache entry file through SimCache::lookup.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/staging.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "vsim/json_export.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu {
namespace {

constexpr int kCasesPerDocument = 3000;
constexpr u64 kFuzzSeed = 0xF0221ED5;

// Re-renders a parsed value the way the writer rendered it: exact integers
// as integers, every other number as a double.
void emit(JsonWriter& json, const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      json.null();
      break;
    case JsonValue::Kind::kBool:
      json.value(value.as_bool());
      break;
    case JsonValue::Kind::kNumber:
      if (!value.is_integer()) {
        json.value(value.as_double());
      } else if (const auto number = value.try_u64()) {
        json.value(*number);
      } else {
        json.value(value.as_i64());
      }
      break;
    case JsonValue::Kind::kString:
      json.value(value.as_string());
      break;
    case JsonValue::Kind::kArray:
      json.begin_array();
      for (const JsonValue& item : value.items()) emit(json, item);
      json.end_array();
      break;
    case JsonValue::Kind::kObject:
      json.begin_object();
      for (const auto& [key, member] : value.members()) {
        json.key(key);
        emit(json, member);
      }
      json.end_object();
      break;
  }
}

std::string rendered(const JsonValue& value) {
  std::ostringstream out;
  JsonWriter json(out);
  emit(json, value);
  return out.str();
}

serve::Trace small_trace() {
  serve::GeneratorOptions options;
  options.requests = 40;
  options.suite.scale = 0.02;
  return serve::generate_trace(options);
}

std::string trace_document(const serve::Trace& trace) {
  std::ostringstream out;
  JsonWriter json(out);
  serve::write_trace_json(json, trace);
  return out.str();
}

std::string serve_report_document(const serve::Trace& trace) {
  serve::ServeOptions options;
  options.jobs = 1;
  serve::ServeReport report = serve::serve_trace(trace, options);
  // Fixed host timings keep the document, and so every mutation of it, the
  // same on every run.
  report.host.wall_us = 14632.779;
  report.host.req_per_sec = 2733.6510449;
  report.host.sim_wall_us = 14397.995;
  std::ostringstream out;
  JsonWriter json(out);
  serve::write_serve_report_json(json, trace, options, report);
  return out.str();
}

// The file SimCache::store writes for a profiled CRS transpose.
std::string sim_cache_document() {
  Coo coo(48, 48);
  for (Index i = 0; i < 48; ++i) coo.add(i, (i * 7 + 3) % 48, static_cast<float>(i) + 0.25f);
  coo.canonicalize();
  const auto stage = kernels::build_crs_stage(Csr::from_coo(coo));
  const vsim::MachineConfig config;
  vsim::PerfCounters counters;
  const vsim::RunStats stats = kernels::run_crs_transpose(stage, config, {}, &counters).stats;
  std::ostringstream profile;
  {
    JsonWriter json(profile);
    vsim::write_profile_json(json, counters);
  }

  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("smtu_test_json_fuzz_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::string text;
  {
    vsim::SimCache cache(dir.string());
    cache.store("entry", {stats, true, profile.str()});
    std::ifstream in(dir / "entry.json", std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::filesystem::remove_all(dir);
  return text;
}

using Documents = std::vector<std::pair<std::string, std::string>>;  // name, text

const Documents& documents() {
  static const Documents docs = [] {
    const serve::Trace trace = small_trace();
    return Documents{
        {"trace", trace_document(trace)},
        {"sim-cache entry", sim_cache_document()},
        {"serve report", serve_report_document(trace)},
    };
  }();
  return docs;
}

// Flips a bit, truncates, or inserts a byte (JSON punctuation and digits
// more often than the rest, so mutations reach past the first token).
void mutate(std::string& text, Rng& rng) {
  static constexpr char kSyntax[] = "{}[]\",:\\-+.eE0123456789tfnu \x01";
  switch (rng.below(3)) {
    case 0:
      if (!text.empty()) {
        text[rng.below(text.size())] ^= static_cast<char>(1u << rng.below(8));
      }
      break;
    case 1:
      text.resize(rng.below(text.size() + 1));
      break;
    default: {
      const char byte = rng.chance(0.75)
                            ? kSyntax[rng.below(sizeof kSyntax - 1)]
                            : static_cast<char>(rng.below(256));
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(rng.below(text.size() + 1)), byte);
    }
  }
}

// The mutated text of one document: one to three edits of the original.
std::string mutated(const std::string& original, Rng& rng) {
  std::string text = original;
  const u64 edits = 1 + rng.below(3);
  for (u64 e = 0; e < edits; ++e) mutate(text, rng);
  return text;
}

TEST(JsonFuzz, WriterDocumentsRoundTripByteIdentically) {
  for (const auto& [name, text] : documents()) {
    ASSERT_FALSE(text.empty()) << name;
    std::string error;
    const auto parsed = parse_json(text, &error);
    ASSERT_TRUE(parsed.has_value()) << name << ": " << error;
    EXPECT_EQ(rendered(*parsed), text) << name;
  }
}

TEST(JsonFuzz, MutatedDocumentsParseOrReportAnOffsetInside) {
  Rng rng(kFuzzSeed);
  for (const auto& [name, original] : documents()) {
    usize rejected = 0;
    for (int i = 0; i < kCasesPerDocument; ++i) {
      const std::string text = mutated(original, rng);
      std::string error;
      const auto parsed = parse_json(text, &error);
      if (parsed.has_value()) continue;
      ++rejected;
      const auto at = error.rfind("(at byte ");
      ASSERT_NE(at, std::string::npos) << name << " case " << i << ": " << error;
      const unsigned long long offset = std::strtoull(error.c_str() + at + 9, nullptr, 10);
      EXPECT_LE(offset, text.size()) << name << " case " << i << ": " << error;
    }
    // Most single-byte damage to a document is visible to the parser.
    EXPECT_GT(rejected, usize{kCasesPerDocument / 2}) << name;
  }
}

TEST(JsonFuzz, MutatedTracesReplayOrSayWhy) {
  const std::string& original = documents()[0].second;
  Rng rng(kFuzzSeed + 1);
  usize replayed = 0;
  usize rejected = 0;
  for (int i = 0; i < kCasesPerDocument; ++i) {
    const std::string text = mutated(original, rng);
    const auto document = parse_json(text);
    if (!document.has_value()) continue;
    std::string error;
    const auto trace = serve::parse_trace(*document, &error);
    if (trace.has_value()) {
      ++replayed;
      EXPECT_FALSE(trace->requests.empty()) << "case " << i;
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "case " << i;
    }
  }
  // Both outcomes occur: damage past the JSON layer reaches the schema
  // checks, and some of it is harmless.
  EXPECT_GT(replayed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(JsonFuzz, MutatedSimCacheEntriesHitOrMiss) {
  const std::string& original = documents()[1].second;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("smtu_test_json_fuzz_lookup_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Rng rng(kFuzzSeed + 2);
  usize hits = 0;
  for (int i = 0; i < kCasesPerDocument; ++i) {
    std::ofstream(dir / "entry.json", std::ios::binary) << mutated(original, rng);
    // A fresh cache each time: its memo would answer from the last case.
    vsim::SimCache cache(dir.string());
    if (cache.lookup("entry", false, false).has_value()) ++hits;
  }
  std::filesystem::remove_all(dir);
  // A mutation that misses the fields the reader checks still hits.
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, usize{kCasesPerDocument});
}

}  // namespace
}  // namespace smtu
