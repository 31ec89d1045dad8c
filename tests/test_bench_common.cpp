// Tests of the benchmark harness plumbing itself: option parsing, the
// transpose comparison helper, and external MatrixMarket suite loading.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "formats/matrix_market.hpp"
#include "suite/generators.hpp"
#include "testing.hpp"
#include "vsim/json_export.hpp"

namespace smtu {
namespace {

TEST(BenchCommon, ParseOptionsDefaultsAndOverrides) {
  {
    const char* argv[] = {"bench"};
    CommandLine cli(1, argv);
    const bench::BenchOptions options = bench::parse_options(cli);
    EXPECT_DOUBLE_EQ(options.suite.scale, 1.0);
    EXPECT_FALSE(options.csv_path.has_value());
    EXPECT_FALSE(options.json_path.has_value());
    EXPECT_FALSE(options.verify);
  }
  {
    const char* argv[] = {"bench", "--scale=0.25", "--seed=7", "--csv=a.csv",
                          "--json=b.json", "--verify"};
    CommandLine cli(6, argv);
    const bench::BenchOptions options = bench::parse_options(cli);
    EXPECT_DOUBLE_EQ(options.suite.scale, 0.25);
    EXPECT_EQ(options.suite.seed, 7u);
    EXPECT_EQ(options.csv_path.value(), "a.csv");
    EXPECT_EQ(options.json_path.value(), "b.json");
    EXPECT_TRUE(options.verify);
  }
}

TEST(BenchCommon, ParseOptionsAcceptsJobsSpellings) {
  {
    const char* argv[] = {"bench"};
    CommandLine cli(1, argv);
    EXPECT_EQ(bench::parse_options(cli).jobs, 0u);  // 0 = all hardware threads
  }
  {
    const char* argv[] = {"bench", "--jobs=3"};
    CommandLine cli(2, argv);
    EXPECT_EQ(bench::parse_options(cli).jobs, 3u);
  }
  {
    const char* argv[] = {"bench", "-j4"};
    CommandLine cli(2, argv);
    EXPECT_EQ(bench::parse_options(cli).jobs, 4u);
  }
  {
    const char* argv[] = {"bench", "-j", "5"};
    CommandLine cli(3, argv);
    EXPECT_EQ(bench::parse_options(cli).jobs, 5u);
  }
}

TEST(BenchCommon, ParseOptionsReadsSeedsUpTo2To64Minus1) {
  const char* argv[] = {"bench", "--seed=18446744073709551615"};
  CommandLine cli(2, argv);
  EXPECT_EQ(bench::parse_options(cli).suite.seed, ~u64{0});
}

TEST(BenchCommon, RunComparisonsConsistentWithAndWithoutVerify) {
  Rng rng(1);
  suite::SuiteMatrix entry;
  entry.name = "probe";
  entry.set = "test";
  entry.matrix = testing::random_coo(100, 100, 700, rng);
  entry.metrics = suite::compute_metrics(entry.matrix);

  const vsim::MachineConfig config;
  bench::BenchOptions options;
  options.jobs = 1;
  const auto timed = bench::run_comparisons({entry}, config, options).at(0).comparison;
  options.verify = true;
  const auto verified = bench::run_comparisons({entry}, config, options).at(0).comparison;
  EXPECT_EQ(timed.hism_cycles, verified.hism_cycles);
  EXPECT_EQ(timed.crs_cycles, verified.crs_cycles);
  EXPECT_GT(timed.speedup, 1.0);
  EXPECT_NEAR(timed.hism_cycles_per_nnz * static_cast<double>(entry.matrix.nnz()),
              static_cast<double>(timed.hism_cycles), 1.0);
}

TEST(BenchCommonDeathTest, VerifyingSweepAbortsOnAWrongTransposeAndStoresNothing) {
  // A HiSM-image program that only halts leaves the image as it was, so on
  // a square, non-symmetric matrix it decodes to the matrix, not its
  // transpose.
  Rng rng(5);
  suite::SuiteMatrix entry;
  entry.name = "square-probe";
  entry.set = "test";
  entry.matrix = testing::random_coo(90, 90, 400, rng);
  ASSERT_FALSE(structurally_equal(entry.matrix, entry.matrix.transposed()));

  const testing::TempDir dir("bench_common_wrong_transpose");
  std::filesystem::create_directories(dir.str());
  bench::BenchOptions options;
  options.jobs = 1;
  options.verify = true;
  options.sim_cache_dir = dir.str();
  const std::vector<bench::TransposeVariant> variants = {
      {"halt-only", {kernels::TransposeImage::kHism, "halt\n"}, vsim::MachineConfig{}}};
  EXPECT_DEATH(bench::sweep_transposes({entry}, variants, options),
               "variant 'halt-only' decoded a wrong transpose of matrix square-probe");
  EXPECT_TRUE(std::filesystem::is_empty(dir.str()));
}

TEST(BenchCommon, LoadExternalSuiteRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "smtu_bench_common_test";
  std::filesystem::create_directories(dir);
  Rng rng(2);
  const Coo a = testing::random_coo(30, 30, 90, rng);
  const Coo b = suite::gen_tridiagonal(25, rng);
  write_matrix_market_file((dir / "b_second.mtx").string(), b);
  write_matrix_market_file((dir / "a_first.mtx").string(), a);
  write_matrix_market_file((dir / "ignored.txt").string(), a);  // wrong extension

  const auto external = bench::load_external_suite(dir.string(), vsim::MachineConfig{});
  ASSERT_EQ(external.size(), 2u);  // .txt skipped
  EXPECT_EQ(external[0].name, "a_first");  // sorted by filename
  EXPECT_EQ(external[1].name, "b_second");
  EXPECT_TRUE(testing::coo_equal(external[0].matrix, a));
  EXPECT_TRUE(testing::coo_equal(external[1].matrix, b));
  EXPECT_EQ(external[0].set, "external");
  EXPECT_GT(external[1].metrics.locality, 0.0);

  std::filesystem::remove_all(dir);
}

// A mistake in the command line, or in the files --mtxdir names, is the
// user's: it gets one diagnostic line and exit status 2, never an abort.

TEST(BenchCommonDeathTest, EmptyExternalDirAborts) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "smtu_bench_common_empty";
  std::filesystem::create_directories(dir);
  EXPECT_EXIT(bench::load_external_suite(dir.string(), vsim::MachineConfig{}),
              ::testing::ExitedWithCode(2), "--mtxdir: no .mtx files");
  std::filesystem::remove_all(dir);
}

TEST(BenchCommonDeathTest, MissingExternalDirFailsWithClearMessage) {
  // A nonexistent --mtxdir must produce our diagnostic, not an unhandled
  // std::filesystem exception.
  EXPECT_EXIT(bench::load_external_suite("/nonexistent/smtu_no_such_dir", vsim::MachineConfig{}),
              ::testing::ExitedWithCode(2), "not a readable directory");
}

TEST(BenchCommonDeathTest, MalformedExternalMatrixExitsWithCode2) {
  // The reader's exception names the line; the diagnostic adds the file.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "smtu_bench_common_malformed";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir / "bad.mtx");
    out << "%%MatrixMarket matrix coordinate real general\n3 3 1\n5 1 1.0\n";
  }
  EXPECT_EXIT(bench::load_external_suite(dir.string(), vsim::MachineConfig{}),
              ::testing::ExitedWithCode(2), "bad\\.mtx: matrix market: line 3: .*out of range");
  std::filesystem::remove_all(dir);
}

TEST(BenchCommonDeathTest, NonSquareSymmetricExternalMatrixExitsWithCode2) {
  // Mirroring the stored triangle would place entries outside the matrix.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "smtu_bench_common_non_square";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "tall.mtx") << "%%MatrixMarket matrix coordinate real symmetric\n"
                                     "2 5 1\n1 5 1.0\n";
  EXPECT_EXIT(bench::load_external_suite(dir.string(), vsim::MachineConfig{}),
              ::testing::ExitedWithCode(2),
              "tall\\.mtx: matrix market: line 2: a symmetric matrix must be square");
  std::filesystem::remove_all(dir);
}

TEST(BenchCommonDeathTest, ExternalMatrixDeclaringHugeNnzExitsWithCode2) {
  // Three lines that declare 4e12 entries: truncated data, not an attempt
  // to reserve them.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "smtu_bench_common_huge_nnz";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "huge.mtx") << "%%MatrixMarket matrix coordinate real general\n"
                                     "4 4 4000000000000\n1 1 1.0\n";
  EXPECT_EXIT(bench::load_external_suite(dir.string(), vsim::MachineConfig{}),
              ::testing::ExitedWithCode(2),
              "huge\\.mtx: matrix market: line 3: truncated entry data");
  std::filesystem::remove_all(dir);
}

TEST(BenchCommonDeathTest, ScaleOutsideUnitIntervalExitsWithCode2) {
  for (const char* scale : {"--scale=0", "--scale=-1", "--scale=1.5"}) {
    const char* argv[] = {"bench", scale};
    CommandLine cli(2, argv);
    EXPECT_EXIT(bench::parse_options(cli), ::testing::ExitedWithCode(2),
                "option --scale expects a number in \\(0, 1\\]")
        << scale;
  }
}

TEST(BenchCommonDeathTest, SignedOrOversizedSeedExitsWithCode2) {
  // -1 must not wrap into seed 2^64 - 1, and 2^64 does not fit.
  for (const char* seed : {"--seed=-1", "--seed=18446744073709551616"}) {
    const char* argv[] = {"bench", seed};
    CommandLine cli(2, argv);
    EXPECT_EXIT(bench::parse_options(cli), ::testing::ExitedWithCode(2),
                "option --seed expects an integer in \\[0, 18446744073709551615\\]")
        << seed;
  }
}

TEST(BenchCommonDeathTest, NegativeJobsExitsWithCode2) {
  const char* argv[] = {"bench", "--jobs=-1"};
  CommandLine cli(2, argv);
  EXPECT_EXIT(bench::parse_options(cli), ::testing::ExitedWithCode(2),
              "option --jobs expects an integer in \\[0, 4294967295\\], got '-1'");
}

TEST(BenchCommonDeathTest, UnwritableJsonPathExitsWithCode2) {
  // The path is checked while the options are parsed, before any bench
  // simulates.
  const char* argv[] = {"bench", "--json=/nonexistent/smtu_no_such_dir/out.json"};
  CommandLine cli(2, argv);
  EXPECT_EXIT(bench::parse_options(cli), ::testing::ExitedWithCode(2),
              "cannot open /nonexistent/smtu_no_such_dir/out.json");
}

TEST(BenchCommonDeathTest, SimCacheDirectoryThatCannotBeCreatedExitsWithCode2) {
  // A regular file where the cache directory's parent should be; like the
  // output paths, the directory is checked while the options are parsed.
  const std::filesystem::path blocker =
      std::filesystem::temp_directory_path() / "smtu_bench_common_blocker";
  std::ofstream(blocker) << "not a directory\n";
  const std::string cache = (blocker / "cache").string();
  const std::string flag = "--sim-cache=" + cache;
  const char* argv[] = {"bench", flag.c_str()};
  CommandLine cli(2, argv);
  EXPECT_EXIT(bench::parse_options(cli), ::testing::ExitedWithCode(2),
              "cannot create directory " + cache);
  std::filesystem::remove(blocker);
}

// Writes a one-entry 1 x cols matrix as the only .mtx file of a fresh
// directory, for the --mtxdir checks of what the machine can stage.
std::filesystem::path one_row_matrix_dir(const char* tag, unsigned long long cols) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "wide.mtx") << "%%MatrixMarket matrix coordinate real general\n1 "
                                  << cols << " 1\n1 " << cols << " 1.0\n";
  return dir;
}

TEST(BenchCommonDeathTest, ExternalMatrixBeyondTheHismKeyExitsWithCode2) {
  // 2^30 + 1 columns need six levels at s = 64, a 72-bit key.
  const std::filesystem::path dir = one_row_matrix_dir("smtu_bench_common_wide_key", 1073741825);
  EXPECT_EXIT(bench::load_external_suite(dir.string(), vsim::MachineConfig{}),
              ::testing::ExitedWithCode(2),
              "wide\\.mtx: a 1 x 1073741825 matrix needs a HiSM key of more than 64 bits");
  std::filesystem::remove_all(dir);
}

TEST(BenchCommonDeathTest, ExternalMatrixBeyondTheMachineMemoryExitsWithCode2) {
  // 2^30 columns fit the HiSM key, but the CRS image's IAT alone is 4 GiB,
  // past the paper's machine's 1 GiB memory: the check fails before any
  // image is built.
  const std::filesystem::path dir = one_row_matrix_dir("smtu_bench_common_wide_image", 1073741824);
  EXPECT_EXIT(bench::load_external_suite(dir.string(), vsim::MachineConfig{}),
              ::testing::ExitedWithCode(2),
              "wide\\.mtx: its CRS image ends at byte [0-9]+, past the machine's 1073741824-byte "
              "memory");
  std::filesystem::remove_all(dir);
}

TEST(ParallelHarness, RunComparisonsIsDeterministicAcrossJobs) {
  // The determinism contract of the parallel harness: any -jN produces the
  // same records (cycles, speedups, full RunStats) in the same order as the
  // serial -j1 run; only wall_ms may differ.
  suite::SuiteOptions suite_options;
  suite_options.scale = 0.02;
  const auto set = suite::build_dsab_set(suite::kSetLocality, suite_options);
  const vsim::MachineConfig config;

  bench::BenchOptions serial;
  serial.suite = suite_options;
  serial.jobs = 1;
  bench::BenchOptions parallel = serial;
  parallel.jobs = 4;

  const auto base = bench::run_comparisons(set, config, serial, "locality",
                                           [](const suite::MatrixMetrics& m) {
                                             return m.locality;
                                           });
  const auto fanned = bench::run_comparisons(set, config, parallel, "locality",
                                             [](const suite::MatrixMetrics& m) {
                                               return m.locality;
                                             });
  ASSERT_EQ(base.size(), set.size());
  ASSERT_EQ(base.size(), fanned.size());
  for (usize i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].name, fanned[i].name) << i;
    EXPECT_DOUBLE_EQ(base[i].metric, fanned[i].metric) << i;
    EXPECT_EQ(base[i].comparison.hism_cycles, fanned[i].comparison.hism_cycles) << i;
    EXPECT_EQ(base[i].comparison.crs_cycles, fanned[i].comparison.crs_cycles) << i;
    EXPECT_DOUBLE_EQ(base[i].comparison.speedup, fanned[i].comparison.speedup) << i;
    // Full stats equality via the canonical serialization (RunStats has no
    // operator==): everything but the host wall time must match bit-for-bit.
    std::ostringstream lhs, rhs;
    {
      JsonWriter a(lhs), b(rhs);
      vsim::write_run_stats_json(a, base[i].comparison.hism.stats);
      vsim::write_run_stats_json(b, fanned[i].comparison.hism.stats);
    }
    EXPECT_EQ(lhs.str(), rhs.str()) << base[i].name;
  }
}

}  // namespace
}  // namespace smtu
