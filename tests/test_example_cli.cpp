// Command-line checks of the example binaries: a size, count, scale, seed,
// STM or machine parameter they cannot run, or a --matrix file they cannot
// read, prints one line naming the option or file and exits 2, instead of
// aborting, wrapping a negative value into a huge one, or running on.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace smtu {
namespace {

// Runs `command` with stderr captured; expects exit status 2 and `needle`
// on stderr. ctest runs the tests in parallel, so each test captures into
// a file of its own.
void expect_usage_error(const std::string& command, const std::string& needle) {
  const std::string stderr_path =
      std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()) +
      "_stderr.txt";
  const int status = std::system((command + " > /dev/null 2> " + stderr_path).c_str());
  ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 2);
  std::ifstream in(stderr_path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find(needle), std::string::npos) << "stderr: " << text.str();
  std::remove(stderr_path.c_str());
}

TEST(ExampleCli, TransposeShowdownRejectsSizesAndStmParametersOutOfRange) {
  // Each case: the arguments and the option its one-line diagnostic names.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--B=0", "option --B expects an integer in [1, "},
      {"--B=-1", "option --B expects an integer in [1, "},
      {"--L=0", "option --L expects an integer in [1, "},
      {"--L=-1", "option --L expects an integer in [1, "},
      {"--L=65", "option --L expects an integer in [1, 64]"},
      {"--dim=-1", "option --dim expects an integer in [1, "},
      {"--dim=0", "option --dim expects an integer in [1, "},
      {"--nnz=-1", "option --nnz expects an integer in [1, "},
      // More non-zeros than the pattern's generator can place.
      {"--dim=10 --nnz=1000", "option --nnz expects an integer in [1, 100]"},
      {"--pattern=clusters --dim=8 --nnz=5000", "option --nnz expects an integer in [1, 199]"},
  };
  for (const auto& [args, needle] : cases) {
    SCOPED_TRACE("transpose_showdown " + args);
    const bool has_pattern = args.find("--pattern=") != std::string::npos;
    expect_usage_error(std::string(SMTU_TRANSPOSE_SHOWDOWN_BIN) +
                           (has_pattern ? " " : " --pattern=random ") + args,
                       needle);
  }
}

TEST(ExampleCli, CountsOutOfRangeExitWith2) {
  // Each case: the command and the option its one-line diagnostic names. A
  // count below 1 never wraps, and an --nnz the pattern cannot place never
  // reaches the generator.
  const std::string spmv_demo = SMTU_SPMV_DEMO_BIN;
  const std::string power_iteration = SMTU_POWER_ITERATION_BIN;
  const std::string hism_explorer = SMTU_HISM_EXPLORER_BIN;
  const std::string cgls_solver = SMTU_CGLS_SOLVER_BIN;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {spmv_demo + " --dim=-1", "option --dim expects an integer in [1, "},
      {spmv_demo + " --nnz=-1", "option --nnz expects an integer in [1, "},
      {spmv_demo + " --pattern=random --dim=10 --nnz=1000",
       "option --nnz expects an integer in [1, 100]"},
      {spmv_demo + " --dim=8 --nnz=5000", "option --nnz expects an integer in [1, 299]"},
      {power_iteration + " --nnz=-5", "option --nnz expects an integer in [1, "},
      {power_iteration + " --iters=0", "option --iters expects an integer in [1, "},
      {power_iteration + " --dim=10 --nnz=1000", "option --nnz expects an integer in [1, 100]"},
      {hism_explorer + " --pattern=random --nnz=-1", "option --nnz expects an integer in [1, "},
      {hism_explorer + " --pattern=random --dim=10 --nnz=1000",
       "option --nnz expects an integer in [1, 100]"},
      {hism_explorer + " --pattern=clusters --dim=8 --nnz=5000",
       "option --nnz expects an integer in [1, 127]"},
      {cgls_solver + " --rows=-3", "option --rows expects an integer in [1, "},
      {cgls_solver + " --iters=-1", "option --iters expects an integer in [1, "},
      {cgls_solver + " --rows=10 --cols=20", "option --cols expects an integer in [1, 10]"},
      {cgls_solver + " --rows=10 --cols=5 --nnz=100",
       "option --nnz expects an integer in [1, 50]"},
  };
  for (const auto& [command, needle] : cases) {
    SCOPED_TRACE(command);
    expect_usage_error(command, needle);
  }
}

TEST(ExampleCli, DsabExportChecksScaleAndSeedBeforeWriting) {
  const std::string dir = "test_example_cli_dsab";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--scale=0", "option --scale expects a number in (0, 1]"},
      {"--scale=-1", "option --scale expects a number in (0, 1]"},
      {"--scale=2", "option --scale expects a number in (0, 1]"},
      {"--scale=nan", "option --scale expects a number in (0, 1]"},
      {"--seed=-1", "option --seed expects an integer in [0, 18446744073709551615]"},
  };
  for (const auto& [args, needle] : cases) {
    SCOPED_TRACE("dsab_export " + args);
    expect_usage_error(std::string(SMTU_DSAB_EXPORT_BIN) + " --dir=" + dir + " " + args,
                       needle);
    EXPECT_FALSE(std::filesystem::exists(dir)) << "a failed run created its directory";
  }
}

TEST(ExampleCli, UnreadableMatrixFilesExitWith2) {
  const std::string bad_header = "test_example_cli_bad_header.mtx";
  const std::string huge_nnz = "test_example_cli_huge_nnz.mtx";
  std::ofstream(bad_header) << "%%NotMatrixMarket nope\n1 1 0\n";
  std::ofstream(huge_nnz) << "%%MatrixMarket matrix coordinate real general\n"
                             "4 4 4000000000000\n1 1 1.0\n";
  // Each case: the file and the start of the reader's reason.
  const std::vector<std::pair<std::string, std::string>> files = {
      {"test_example_cli_missing.mtx", "cannot open test_example_cli_missing.mtx"},
      {bad_header, "matrix market: line 1: expected"},
      {huge_nnz, "matrix market: line 3: truncated entry data"},
  };
  for (const std::string binary : {SMTU_TRANSPOSE_SHOWDOWN_BIN, SMTU_HISM_EXPLORER_BIN}) {
    for (const auto& [file, reason] : files) {
      SCOPED_TRACE(binary + " --matrix=" + file);
      expect_usage_error(binary + " --matrix=" + file, "--matrix: " + file + ": " + reason);
    }
  }
  std::remove(bad_header.c_str());
  std::remove(huge_nnz.c_str());
}

TEST(ExampleCli, NonSquareSymmetricMatrixFilesExitWith2) {
  // The mirrored triangle of each would fall outside the matrix.
  const std::vector<std::pair<std::string, std::string>> files = {
      {"test_example_cli_symmetric.mtx",
       "%%MatrixMarket matrix coordinate real symmetric\n2 5 1\n1 5 1.0\n"},
      {"test_example_cli_array_symmetric.mtx",
       "%%MatrixMarket matrix array real symmetric\n5 2\n1\n2\n3\n4\n5\n6\n7\n8\n9\n"},
      {"test_example_cli_skew.mtx",
       "%%MatrixMarket matrix coordinate real skew-symmetric\n3 4 2\n2 1 1.0\n3 2 2.0\n"},
  };
  for (const auto& [file, text] : files) std::ofstream(file) << text;
  for (const std::string binary : {SMTU_TRANSPOSE_SHOWDOWN_BIN, SMTU_HISM_EXPLORER_BIN}) {
    for (const auto& [file, text] : files) {
      SCOPED_TRACE(binary + " --matrix=" + file);
      expect_usage_error(binary + " --matrix=" + file,
                         "--matrix: " + file +
                             ": matrix market: line 2: a symmetric matrix must be square");
    }
  }
  for (const auto& [file, text] : files) std::remove(file.c_str());
}

TEST(ExampleCli, VsimRunRejectsSectionSizesOutOfRange) {
  const std::string program_path = "test_example_cli_halt.s";
  {
    std::ofstream program(program_path);
    program << "halt\n";
  }
  // 4294967298 is 2^32 + 2: it must not wrap to a section of 2.
  for (const std::string value : {"0", "1", "1000", "-1", "4294967298"}) {
    SCOPED_TRACE("vsim_run --section=" + value);
    expect_usage_error(
        std::string(SMTU_VSIM_RUN_BIN) + " --section=" + value + " " + program_path,
        "option --section expects an integer in [2, ");
  }
  std::remove(program_path.c_str());
}

}  // namespace
}  // namespace smtu
