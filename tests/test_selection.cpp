// Tests of the D-SAB pool and the sort-and-pick-log-spaced selection
// procedure (§IV-B of the paper / the D-SAB paper).
#include <gtest/gtest.h>

#include <cmath>

#include "suite/selection.hpp"

namespace smtu::suite {
namespace {

constexpr double kPoolScale = 0.15;  // keep the 132-matrix build fast in tests

double by_nnz(const MatrixMetrics& m) { return static_cast<double>(m.nnz); }
double by_locality(const MatrixMetrics& m) { return m.locality; }
double by_anz(const MatrixMetrics& m) { return m.avg_nnz_per_row; }

TEST(DsabPool, Has132DistinctMatrices) {
  const auto pool = build_dsab_pool({.scale = kPoolScale});
  ASSERT_EQ(pool.size(), 132u);
  for (const auto& entry : pool) {
    EXPECT_GT(entry.matrix.nnz(), 0u) << entry.name;
    EXPECT_EQ(entry.set, "pool");
  }
  // Distinct names.
  std::set<std::string> names;
  for (const auto& entry : pool) names.insert(entry.name);
  EXPECT_EQ(names.size(), 132u);
}

TEST(DsabPool, Deterministic) {
  const auto a = build_dsab_pool({.scale = kPoolScale});
  const auto b = build_dsab_pool({.scale = kPoolScale});
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(structurally_equal(a[i].matrix, b[i].matrix)) << a[i].name;
  }
}

TEST(DsabPool, SpansWideParameterRanges) {
  const auto pool = build_dsab_pool({.scale = kPoolScale});
  double min_nnz = 1e300;
  double max_nnz = 0;
  double min_loc = 1e300;
  double max_loc = 0;
  for (const auto& entry : pool) {
    min_nnz = std::min(min_nnz, by_nnz(entry.metrics));
    max_nnz = std::max(max_nnz, by_nnz(entry.metrics));
    min_loc = std::min(min_loc, by_locality(entry.metrics));
    max_loc = std::max(max_loc, by_locality(entry.metrics));
  }
  EXPECT_GT(max_nnz / min_nnz, 100.0);  // several decades of size
  EXPECT_GT(max_loc / min_loc, 20.0);   // and of locality
}

struct Criterion {
  const char* name;
  double (*value)(const MatrixMetrics&);
};

// Print the name, not the function pointer: an address moves with ASLR on
// every run, and the test names built from it would change with each build.
void PrintTo(const Criterion& c, std::ostream* os) { *os << c.name; }

class SelectionByCriterion : public ::testing::TestWithParam<Criterion> {};

TEST_P(SelectionByCriterion, PicksTenAscendingDistinct) {
  const auto pool = build_dsab_pool({.scale = kPoolScale});
  const auto picks = select_log_spaced(pool, 10, GetParam().value);
  ASSERT_EQ(picks.size(), 10u);
  for (usize i = 1; i < picks.size(); ++i) {
    EXPECT_GE(GetParam().value(picks[i].metrics), GetParam().value(picks[i - 1].metrics));
    EXPECT_NE(picks[i].name, picks[i - 1].name);
  }
  EXPECT_EQ(picks.front().index, 0u);
  EXPECT_EQ(picks.back().index, 9u);
}

TEST_P(SelectionByCriterion, CoversTheExtremes) {
  const auto pool = build_dsab_pool({.scale = kPoolScale});
  double min_value = 1e300;
  double max_value = 0;
  for (const auto& entry : pool) {
    const double v = GetParam().value(entry.metrics);
    if (v <= 0) continue;
    min_value = std::min(min_value, v);
    max_value = std::max(max_value, v);
  }
  const auto picks = select_log_spaced(pool, 10, GetParam().value);
  EXPECT_DOUBLE_EQ(GetParam().value(picks.front().metrics), min_value);
  EXPECT_DOUBLE_EQ(GetParam().value(picks.back().metrics), max_value);
}

TEST_P(SelectionByCriterion, StepsAreRoughlyLogUniform) {
  const auto pool = build_dsab_pool({.scale = kPoolScale});
  const auto picks = select_log_spaced(pool, 10, GetParam().value);
  const double lo = std::log(GetParam().value(picks.front().metrics));
  const double hi = std::log(GetParam().value(picks.back().metrics));
  const double ideal_step = (hi - lo) / 9.0;
  for (usize k = 0; k < picks.size(); ++k) {
    const double target = lo + ideal_step * static_cast<double>(k);
    const double actual = std::log(GetParam().value(picks[k].metrics));
    // Within one ideal step of the exact log-grid point (a finite pool
    // cannot hit the grid exactly).
    EXPECT_NEAR(actual, target, ideal_step + 1e-9) << "pick " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Criteria, SelectionByCriterion,
                         ::testing::Values(Criterion{"nnz", &by_nnz},
                                           Criterion{"locality", &by_locality},
                                           Criterion{"anz", &by_anz}));

TEST(Selection, RejectsOversizedRequest) {
  const auto pool = build_dsab_pool({.scale = kPoolScale});
  std::vector<SuiteMatrix> tiny(pool.begin(), pool.begin() + 5);
  EXPECT_DEATH(select_log_spaced(tiny, 10, &by_nnz), "population");
}

}  // namespace
}  // namespace smtu::suite
