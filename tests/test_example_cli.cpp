// Command-line checks of the example binaries: a size or STM parameter they
// cannot run prints one line naming the option and exits 2, instead of
// aborting, wrapping a negative value into a huge one, or running on.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace smtu {
namespace {

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
  };
  const std::string stderr_path = "test_example_cli_stderr.txt";
  for (const auto& [args, needle] : cases) {
    SCOPED_TRACE("transpose_showdown " + args);
    const std::string command = std::string(SMTU_TRANSPOSE_SHOWDOWN_BIN) +
                                " --pattern=random " + args + " > /dev/null 2> " + stderr_path;
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << "killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 2);
    std::ifstream in(stderr_path);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find(needle), std::string::npos) << "stderr: " << text.str();
  }
  std::remove(stderr_path.c_str());
}

}  // namespace
}  // namespace smtu
