// All-pairs format conversion property sweep: every storage format in the
// library must round-trip any matrix through COO unchanged, and every
// format's SpMV must agree with the CSR reference.
#include <gtest/gtest.h>

#include <cmath>

#include "formats/csr.hpp"
#include "formats/dense.hpp"
#include "formats/jagged.hpp"
#include "hism/hism.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

struct ShapeCase {
  Index rows;
  Index cols;
  usize nnz;
  u64 seed;
};

void PrintTo(const ShapeCase& c, std::ostream* os) {
  *os << c.rows << "x" << c.cols << "/" << c.nnz;
}

class FormatRoundTrip : public ::testing::TestWithParam<ShapeCase> {
 protected:
  Coo matrix() const {
    Rng rng(GetParam().seed);
    return random_coo(GetParam().rows, GetParam().cols, GetParam().nnz, rng);
  }
};

TEST_P(FormatRoundTrip, AllFormatsPreserveTheMatrix) {
  const Coo coo = matrix();
  EXPECT_TRUE(coo_equal(Csr::from_coo(coo).to_coo(), coo));
  EXPECT_TRUE(coo_equal(Jagged::from_coo(coo).to_coo(), coo));
  EXPECT_TRUE(coo_equal(HismMatrix::from_coo(coo, 8).to_coo(), coo));
  EXPECT_TRUE(coo_equal(HismMatrix::from_coo(coo, 64).to_coo(), coo));
  if (coo.rows() * coo.cols() <= 65536) {
    EXPECT_TRUE(coo_equal(Dense::from_coo(coo).to_coo(), coo));
  }
}

TEST_P(FormatRoundTrip, AllSpmvsAgree) {
  const Coo coo = matrix();
  Rng rng(GetParam().seed ^ 0xabcdef);
  std::vector<float> x(coo.cols());
  for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));

  const std::vector<float> reference = Csr::from_coo(coo).spmv(x);
  const auto check = [&](const std::vector<float>& y, const char* which) {
    ASSERT_EQ(y.size(), reference.size()) << which;
    for (usize i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], reference[i], 1e-4f * std::max(1.0f, std::fabs(reference[i])))
          << which << " row " << i;
    }
  };
  check(Jagged::from_coo(coo).spmv(x), "jd");
}

TEST_P(FormatRoundTrip, TransposePathsAgree) {
  const Coo coo = matrix();
  const Coo expected = coo.transposed();
  EXPECT_TRUE(coo_equal(Csr::from_coo(coo).transposed_pissanetsky().to_coo(), expected));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FormatRoundTrip,
    ::testing::Values(ShapeCase{1, 1, 1, 1}, ShapeCase{1, 100, 40, 2},
                      ShapeCase{100, 1, 40, 3}, ShapeCase{17, 17, 60, 4},
                      ShapeCase{64, 64, 500, 5}, ShapeCase{65, 63, 500, 6},
                      ShapeCase{128, 32, 700, 7}, ShapeCase{32, 128, 700, 8},
                      ShapeCase{200, 200, 4000, 9}, ShapeCase{255, 257, 2000, 10},
                      ShapeCase{50, 50, 2500, 11}  /* fully dense */));

}  // namespace
}  // namespace smtu
