#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "formats/matrix_market.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

TEST(MatrixMarket, WriteReadRoundTrip) {
  Rng rng(1);
  const Coo coo = random_coo(12, 9, 40, rng);
  std::stringstream stream;
  write_matrix_market(stream, coo, "round trip");
  EXPECT_TRUE(coo_equal(read_matrix_market(stream), coo));
}

TEST(MatrixMarket, ReadsCoordinateReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 4 2\n"
      "1 2 1.5\n"
      "3 4 -2.0\n");
  const Coo coo = read_matrix_market(in);
  EXPECT_EQ(coo.rows(), 3u);
  EXPECT_EQ(coo.cols(), 4u);
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.entries()[0], (CooEntry{0, 1, 1.5f}));
  EXPECT_EQ(coo.entries()[1], (CooEntry{2, 3, -2.0f}));
}

TEST(MatrixMarket, ReadsPattern) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const Coo coo = read_matrix_market(in);
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_FLOAT_EQ(coo.entries()[0].value, 1.0f);
}

TEST(MatrixMarket, ExpandsSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n");
  const Coo coo = read_matrix_market(in);
  ASSERT_EQ(coo.nnz(), 3u);  // (1,0), (0,1) mirrored, (2,2) diagonal once
}

TEST(MatrixMarket, ExpandsSkewSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "3 3 1\n"
      "2 1 5.0\n");
  Coo coo = read_matrix_market(in);
  coo.canonicalize();
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_FLOAT_EQ(coo.entries()[0].value, -5.0f);  // (0,1)
  EXPECT_FLOAT_EQ(coo.entries()[1].value, 5.0f);   // (1,0)
}

TEST(MatrixMarket, ReadsArrayFormat) {
  std::istringstream in(
      "%%MatrixMarket matrix array real general\n"
      "2 2\n"
      "1.0\n0.0\n0.0\n4.0\n");
  const Coo coo = read_matrix_market(in);
  ASSERT_EQ(coo.nnz(), 2u);
  EXPECT_EQ(coo.entries()[0], (CooEntry{0, 0, 1.0f}));
  EXPECT_EQ(coo.entries()[1], (CooEntry{1, 1, 4.0f}));
}

TEST(MatrixMarket, RejectsComplex) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate complex general\n"
      "1 1 1\n"
      "1 1 1.0 2.0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsOutOfRangeIndices) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "3 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsTruncatedData) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsADeclaredCountTheDataDoesNotHold) {
  // The count on the size line is not reserved up front: a short file that
  // declares billions of entries is truncated data, not an allocation.
  for (const char* nnz : {"4000000000000", "900000000"}) {
    std::istringstream in(std::string("%%MatrixMarket matrix coordinate real general\n4 4 ") +
                          nnz + "\n1 1 1.0\n");
    try {
      read_matrix_market(in);
      ADD_FAILURE() << nnz << ": no error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("line 3: truncated entry data"), std::string::npos)
          << error.what();
    }
  }
}

TEST(MatrixMarket, RejectsBadHeader) {
  std::istringstream in("%%NotMatrixMarket nope\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(in), std::runtime_error);
}

TEST(MatrixMarket, RejectsANonSquareSymmetricMatrix) {
  // The mirrored triangle would fall outside the matrix.
  for (const char* text : {
           "%%MatrixMarket matrix coordinate real symmetric\n2 5 1\n1 5 1.0\n",
           "%%MatrixMarket matrix coordinate real skew-symmetric\n3 4 2\n2 1 1.0\n3 2 2.0\n",
           "%%MatrixMarket matrix array real symmetric\n5 2\n1\n2\n3\n4\n5\n6\n7\n8\n9\n",
           "%%MatrixMarket matrix array real skew-symmetric\n2 3\n1\n2\n3\n",
       }) {
    std::istringstream in(text);
    try {
      read_matrix_market(in);
      ADD_FAILURE() << text << ": no error";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("line 2: a symmetric matrix must be square"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(MatrixMarket, ReadsNoArrayValuesForZeroRows) {
  // No value to read in any column: the column count is not a loop bound.
  std::istringstream in("%%MatrixMarket matrix array real general\n0 4000000000000000000\n");
  const Coo coo = read_matrix_market(in);
  EXPECT_EQ(coo.rows(), 0u);
  EXPECT_EQ(coo.nnz(), 0u);
}

// Seeded mutation fuzzing of the reader, which reads user files for
// --mtxdir and --matrix: a mutated file must come back as a matrix or as a
// runtime_error naming a line inside the text, never as an abort.
constexpr int kCasesPerFile = 1000;
constexpr u64 kFuzzSeed = 0x3A7121CE;

const std::vector<std::string>& seed_files() {
  static const std::vector<std::string> files = {
      "%%MatrixMarket matrix coordinate real general\n% a comment\n4 5 5\n1 1 1.5\n"
      "2 3 -2\n3 5 4e-1\n4 2 7\n4 4 1\n",
      "%%MatrixMarket matrix coordinate real symmetric\n4 4 4\n1 1 2\n3 1 -1\n4 2 5\n"
      "4 4 3\n",
      "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 5.0\n3 2 -1.25\n",
      "%%MatrixMarket matrix coordinate pattern general\n3 4 3\n1 4\n2 2\n3 1\n",
      "%%MatrixMarket matrix coordinate integer general\n3 3 3\n1 2 7\n2 3 -4\n3 3 9\n",
      "%%MatrixMarket matrix array real general\n3 2\n1\n0\n2.5\n0\n-3\n4\n",
      "%%MatrixMarket matrix array real symmetric\n3 3\n1\n2\n0\n4\n5\n6\n",
  };
  return files;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + '\n';
  return text;
}

// Replaces one whitespace-separated word of `line`, from word `first` on.
void replace_word(std::string& line, usize first, const std::string& word, Rng& rng) {
  std::istringstream in(line);
  std::vector<std::string> words(std::istream_iterator<std::string>{in},
                                 std::istream_iterator<std::string>{});
  if (words.size() <= first) return;
  words[first + rng.below(words.size() - first)] = word;
  line.clear();
  for (const std::string& w : words) line += (line.empty() ? "" : " ") + w;
}

// One edit to the file: a header word or a number replaced, a line
// dropped, duplicated, inserted or cut off, or a bit flipped.
void mutate(std::vector<std::string>& lines, Rng& rng) {
  static const char* const kHeaderWords[] = {
      "coordinate", "array",     "real",           "integer",  "pattern",
      "complex",    "general",   "symmetric",      "skew-symmetric", "hermitian"};
  static const char* const kNumbers[] = {
      "0", "1", "2", "3", "5", "-1", "1.5", "1e3", "nan", "x", "", "18446744073709551616"};
  static const char* const kInserted[] = {"% inserted", "", "1 1 1.0", "2 2", "9"};
  if (lines.empty()) lines.emplace_back();
  const usize index = rng.below(lines.size());
  std::string& line = lines[index];
  switch (rng.below(6)) {
    case 0:  // the layout, field or symmetry
      replace_word(lines[0], 2, kHeaderWords[rng.below(std::size(kHeaderWords))], rng);
      break;
    case 1:  // a size or entry number
      if (index == 0) break;
      replace_word(line, 0,
                   rng.chance(0.2) ? std::to_string(rng.next_u64())
                                   : kNumbers[rng.below(std::size(kNumbers))],
                   rng);
      break;
    case 2:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(index));
      break;
    case 3: {
      const std::string extra =
          rng.chance(0.5) ? line : kInserted[rng.below(std::size(kInserted))];
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(index), extra);
      break;
    }
    case 4:
      line.resize(rng.below(line.size() + 1));
      break;
    default:
      if (!line.empty()) line[rng.below(line.size())] ^= static_cast<char>(1u << rng.below(8));
      break;
  }
}

TEST(MatrixMarketFuzz, MutatedFilesParseOrNameALineInside) {
  Rng rng(kFuzzSeed);
  usize parsed = 0;
  usize rejected = 0;
  usize not_square = 0;
  for (const std::string& original : seed_files()) {
    std::istringstream unmutated(original);
    EXPECT_NO_THROW(read_matrix_market(unmutated)) << original;
    for (int i = 0; i < kCasesPerFile; ++i) {
      std::vector<std::string> lines = split_lines(original);
      const u64 edits = 1 + rng.below(3);
      for (u64 e = 0; e < edits; ++e) mutate(lines, rng);
      const std::string text = join_lines(lines);
      const usize line_count = std::max<usize>(1, split_lines(text).size());
      std::istringstream in(text);
      try {
        const Coo coo = read_matrix_market(in);
        for (const CooEntry& entry : coo.entries()) {
          EXPECT_LT(entry.row, coo.rows()) << text;
          EXPECT_LT(entry.col, coo.cols()) << text;
        }
        ++parsed;
      } catch (const std::runtime_error& error) {
        const std::string what = error.what();
        const usize at = what.find("line ");
        ASSERT_NE(at, std::string::npos) << what << "\n" << text;
        const unsigned long long line = std::strtoull(what.c_str() + at + 5, nullptr, 10);
        EXPECT_GE(line, 1u) << what << "\n" << text;
        EXPECT_LE(line, line_count) << what << "\n" << text;
        if (what.find("must be square") != std::string::npos) ++not_square;
        ++rejected;
      }
    }
  }
  // Both outcomes occur, and the edits reach the non-square symmetric case.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, parsed);
  EXPECT_GT(not_square, 0u);
}

}  // namespace
}  // namespace smtu
