#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

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

}  // namespace
}  // namespace smtu
