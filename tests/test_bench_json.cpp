// Golden/schema test for the canonical machine-readable benchmark artifact:
// runs the real reproduce_all binary at a tiny suite scale and validates the
// smtu-repro-v1 document it writes; and checks that a table-shaped bench
// (ablation_storage) honours --json, and fails on an unwritable --json path
// before it simulates. SMTU_REPRODUCE_ALL_BIN and SMTU_ABLATION_STORAGE_BIN
// are injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "support/json.hpp"
#include "vsim/json_export.hpp"

namespace smtu {
namespace {

JsonValue run_reproduce_all() {
  const std::string report = "test_bench_json_report.md";
  const std::string artifact = "test_bench_json_repro.json";
  const std::string command = std::string(SMTU_REPRODUCE_ALL_BIN) + " --scale=0.02" +
                              " --out=" + report + " --json=" + artifact +
                              " > test_bench_json_stdout.txt 2>&1";
  const int status = std::system(command.c_str());
  EXPECT_EQ(status, 0) << "reproduce_all failed: " << command;

  std::ifstream in(artifact);
  EXPECT_TRUE(in.is_open()) << "reproduce_all did not write " << artifact;
  std::ostringstream text;
  text << in.rdbuf();

  std::string error;
  auto doc = parse_json(text.str(), &error);
  EXPECT_TRUE(doc.has_value()) << "invalid JSON: " << error;
  std::remove(report.c_str());
  std::remove(artifact.c_str());
  std::remove("test_bench_json_stdout.txt");
  return doc.has_value() ? std::move(*doc) : JsonValue();
}

void expect_finite(const JsonValue& value, const char* what) {
  ASSERT_TRUE(value.is_number()) << what;
  EXPECT_TRUE(std::isfinite(value.as_double())) << what;
}

void check_summary(const JsonValue& summary) {
  ASSERT_TRUE(summary.is_object());
  EXPECT_GE(summary.at("count").as_u64(), 1u);
  expect_finite(summary.at("min_speedup"), "min_speedup");
  expect_finite(summary.at("max_speedup"), "max_speedup");
  expect_finite(summary.at("avg_speedup"), "avg_speedup");
  EXPECT_LE(summary.at("min_speedup").as_double(), summary.at("avg_speedup").as_double());
  EXPECT_LE(summary.at("avg_speedup").as_double(), summary.at("max_speedup").as_double());
}

TEST(BenchJson, ReproduceAllEmitsSchemaValidArtifact) {
  const JsonValue doc = run_reproduce_all();
  ASSERT_TRUE(doc.is_object());

  // Document header: schema id, bench name, self-describing configuration.
  EXPECT_EQ(doc.at("schema").as_string(), "smtu-repro-v1");
  EXPECT_EQ(doc.at("bench").as_string(), "reproduce_all");
  const JsonValue& config = doc.at("config");
  EXPECT_GE(config.at("section").as_u64(), 1u);
  EXPECT_TRUE(config.at("stm").is_object());
  EXPECT_DOUBLE_EQ(doc.at("suite").at("scale").as_double(), 0.02);

  // Harness facts: resolved worker count and (nondeterministic) wall time.
  const JsonValue& harness = doc.at("harness");
  EXPECT_GE(harness.at("jobs").as_u64(), 1u);
  expect_finite(harness.at("wall_ms"), "harness wall_ms");
  EXPECT_GE(harness.at("wall_ms").as_double(), 0.0);

  // Fig. 10 grid: utilization[bandwidth][line] in (0, 1].
  const JsonValue& fig10 = doc.at("fig10");
  const usize num_bandwidths = fig10.at("bandwidths").size();
  const usize num_lines = fig10.at("lines").size();
  ASSERT_GE(num_bandwidths, 1u);
  ASSERT_GE(num_lines, 1u);
  const JsonValue& grid = fig10.at("utilization");
  ASSERT_EQ(grid.size(), num_bandwidths);
  for (const JsonValue& row : grid.items()) {
    ASSERT_EQ(row.size(), num_lines);
    for (const JsonValue& cell : row.items()) {
      expect_finite(cell, "fig10 utilization");
      EXPECT_GT(cell.as_double(), 0.0);
      EXPECT_LE(cell.as_double(), 1.0);
    }
  }

  // Per-figure speedup series with paper reference points.
  const JsonValue& figures = doc.at("figures");
  ASSERT_EQ(figures.size(), 3u);
  for (const JsonValue& figure : figures.items()) {
    EXPECT_FALSE(figure.at("figure").as_string().empty());
    EXPECT_FALSE(figure.at("set").as_string().empty());
    check_summary(figure.at("summary"));
    expect_finite(figure.at("paper").at("avg_speedup"), "paper avg");
    const JsonValue& matrices = figure.at("matrices");
    ASSERT_GE(matrices.size(), 1u);
    for (const JsonValue& record : matrices.items()) {
      EXPECT_FALSE(record.at("name").as_string().empty());
      EXPECT_GE(record.at("nnz").as_u64(), 1u);
      EXPECT_GT(record.at("speedup").as_double(), 0.0);
      EXPECT_GT(record.at("hism_cycles").as_u64(), 0u);
      EXPECT_GT(record.at("crs_cycles").as_u64(), 0u);
      // The embedded cycle statistics round-trip through the RunStats
      // reader, i.e. every counter is present and numeric.
      const auto hism = vsim::run_stats_from_json(record.at("hism"));
      ASSERT_TRUE(hism.has_value());
      EXPECT_EQ(hism->cycles, record.at("hism_cycles").as_u64());
      EXPECT_GT(hism->stm_blocks, 0u);
      EXPECT_GT(hism->vmem_busy_cycles + hism->valu_busy_cycles + hism->stm_busy_cycles, 0u);
      const auto crs = vsim::run_stats_from_json(record.at("crs"));
      ASSERT_TRUE(crs.has_value());
      EXPECT_EQ(crs->cycles, record.at("crs_cycles").as_u64());
      EXPECT_EQ(crs->stm_blocks, 0u);  // the CRS kernel never touches the STM
    }
  }

  check_summary(doc.at("headline"));
  const JsonValue& storage = doc.at("storage");
  EXPECT_GT(storage.at("hism_crs_byte_ratio_avg").as_double(), 0.0);
  EXPECT_GT(storage.at("overhead_fraction_avg").as_double(), 0.0);

  // The host cache-counter section (bench_diff skips it, like harness).
  // This run had no --sim-cache, so that counter block is null; every
  // simulated program and staged matrix was a cold miss at least once.
  const JsonValue& host = doc.at("host");
  EXPECT_GT(host.at("program_cache").at("misses").as_u64(), 0u);
  EXPECT_GT(host.at("stage_cache").at("misses").as_u64(), 0u);
  EXPECT_TRUE(host.at("sim_cache").is_null());

  // Stable top-level key order — downstream tooling (bench_diff, plotting)
  // may rely on it for readable diffs.
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members()) keys.emplace_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"schema", "bench", "config", "suite", "harness",
                                            "host", "fig10", "figures", "headline",
                                            "storage"}));
}

TEST(BenchJson, TableBenchWritesJsonRows) {
  const std::string artifact = "test_bench_json_table.json";
  std::remove(artifact.c_str());
  const std::string command = std::string(SMTU_ABLATION_STORAGE_BIN) +
                              " --scale=0.02 -j1 --json=" + artifact +
                              " > test_bench_json_table_stdout.txt 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0) << "ablation_storage failed: " << command;
  std::remove("test_bench_json_table_stdout.txt");

  std::ifstream in(artifact);
  ASSERT_TRUE(in.is_open()) << "ablation_storage did not write " << artifact;
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(artifact.c_str());
  std::string error;
  const auto doc = parse_json(text.str(), &error);
  ASSERT_TRUE(doc.has_value()) << "invalid JSON: " << error;

  // One object per table row, keyed by the column headers.
  ASSERT_TRUE(doc->is_array());
  ASSERT_EQ(doc->size(), 30u);  // the whole suite, one row per matrix
  for (const JsonValue& row : doc->items()) {
    ASSERT_TRUE(row.is_object());
    EXPECT_TRUE(row.at("matrix").is_string());
    EXPECT_GT(row.at("nnz").as_u64(), 0u);
    expect_finite(row.at("HiSM/CRS"), "HiSM/CRS");
    EXPECT_GT(row.at("HiSM/CRS").as_double(), 0.0);
  }
}

TEST(BenchJson, UnwritableJsonPathFailsBeforeTheRun) {
  // The output path is checked before the first simulation: the bench
  // exits 2 naming it, with nothing on stdout — no table was computed.
  const std::string missing = "test_bench_json_no_such_dir/x.json";
  const std::string command = std::string(SMTU_ABLATION_STORAGE_BIN) +
                              " --scale=0.02 --json=" + missing +
                              " > test_bench_json_fail_stdout.txt"
                              " 2> test_bench_json_fail_stderr.txt";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 2);
  const auto slurp = [](const char* path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  EXPECT_EQ(slurp("test_bench_json_fail_stdout.txt"), "");
  EXPECT_NE(slurp("test_bench_json_fail_stderr.txt").find("cannot open " + missing),
            std::string::npos);
  std::remove("test_bench_json_fail_stdout.txt");
  std::remove("test_bench_json_fail_stderr.txt");
}

}  // namespace
}  // namespace smtu
