#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/bits.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace smtu {
namespace {

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(64, 16), 4u);
}

TEST(Bits, RoundUp) {
  EXPECT_EQ(round_up(0, 4), 0u);
  EXPECT_EQ(round_up(1, 4), 4u);
  EXPECT_EQ(round_up(4, 4), 4u);
  EXPECT_EQ(round_up(6, 4), 8u);
}

TEST(Bits, Log2) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(64), 6u);
  EXPECT_EQ(log2_floor(65), 6u);
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(64), 6u);
  EXPECT_EQ(log2_ceil(65), 7u);
}

TEST(Bits, Ipow) {
  EXPECT_EQ(ipow(64, 0), 1u);
  EXPECT_EQ(ipow(64, 2), 4096u);
  EXPECT_EQ(ipow(2, 10), 1024u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, SampleWithoutReplacementDistinctSorted) {
  Rng rng(11);
  const auto sample = rng.sample_without_replacement(1000, 100);
  ASSERT_EQ(sample.size(), 100u);
  for (usize i = 1; i < sample.size(); ++i) EXPECT_LT(sample[i - 1], sample[i]);
  for (const u64 v : sample) EXPECT_LT(v, 1000u);
}

TEST(Rng, SampleFullPopulation) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(50, 50);
  ASSERT_EQ(sample.size(), 50u);
  for (usize i = 0; i < 50; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc  "), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, SplitWhitespace) {
  const auto fields = split_whitespace("  a\t bb  ccc ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "bb");
  EXPECT_EQ(fields[2], "ccc");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("-1e3").value(), -1000.0);
  EXPECT_FALSE(parse_double("abc").has_value());
}

TEST(Strings, Format) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
}

TEST(Table, AlignsColumns) {
  TextTable table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string text = table.to_string();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
}

TEST(Table, MarkdownRendering) {
  TextTable table({"a", "b"});
  table.add_row({"x", "1"});
  std::ostringstream out;
  table.print_markdown(out);
  EXPECT_EQ(out.str(), "| a | b |\n|---|---|\n| x | 1 |\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.write_row({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(out.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Cli, ParsesOptionsAndPositionals) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1"};
  CommandLine cli(4, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_TRUE(cli.get_flag("flag"));
  EXPECT_EQ(cli.get_string("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  cli.finish();
}

TEST(Cli, GetU64ReadsTheWholeUnsignedRange) {
  const char* argv[] = {"prog", "--zero=0", "--max=18446744073709551615"};
  CommandLine cli(3, argv);
  EXPECT_EQ(cli.get_u64("zero", 7), 0u);
  EXPECT_EQ(cli.get_u64("max", 7), ~u64{0});
  EXPECT_EQ(cli.get_u64("missing", 7), 7u);
  cli.finish();
}

TEST(CliDeathTest, GetU64RejectsSignsAndValuesPast2To64Minus1) {
  for (const char* value : {"-1", "+1", "18446744073709551616", "1e3", "x"}) {
    const std::string arg = std::string("--seed=") + value;
    const char* argv[] = {"prog", arg.c_str()};
    CommandLine cli(2, argv);
    EXPECT_EXIT(cli.get_u64("seed", 0), ::testing::ExitedWithCode(2),
                "prog: option --seed expects an integer in \\[0, 18446744073709551615\\], "
                "got '")
        << value;
  }
}

}  // namespace
}  // namespace smtu
