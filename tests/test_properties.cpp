// Property-based / parameterized sweeps across the whole stack: for many
// (shape, density, section, B, L) combinations, every transpose
// implementation — Pissanetsky on CSR, the HiSM software reference, and
// both simulated kernels — must agree with the COO mirror, and STM timing
// invariants must hold.
#include <gtest/gtest.h>

#include "formats/csr.hpp"
#include "hism/transpose.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "stm/unit.hpp"
#include "support/bits.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;

// ---------------------------------------------------------------------------
// All transpose implementations agree.

struct TransposeCase {
  Index rows;
  Index cols;
  usize nnz;
  u32 section;
  u64 seed;
};

void PrintTo(const TransposeCase& c, std::ostream* os) {
  *os << c.rows << "x" << c.cols << "/" << c.nnz << " s=" << c.section
      << " seed=" << c.seed;
}

class TransposeAgreement : public ::testing::TestWithParam<TransposeCase> {};

TEST_P(TransposeAgreement, AllPathsAgree) {
  const TransposeCase& param = GetParam();
  Rng rng(param.seed);
  const Coo coo = random_coo(param.rows, param.cols, param.nnz, rng);
  const Coo expected = coo.transposed();

  // Host-side references.
  EXPECT_TRUE(coo_equal(Csr::from_coo(coo).transposed_pissanetsky().to_coo(), expected));

  const kernels::HismStage stage = testing::hism_stage(coo, param.section);
  EXPECT_TRUE(coo_equal(transposed(stage.hism).to_coo(), expected));

  // Simulated kernels.
  vsim::MachineConfig config;
  config.section = param.section;
  const auto hism_result = kernels::run_hism_transpose(stage, config);
  EXPECT_TRUE(coo_equal(hism_result.transposed.to_coo(), expected));
  EXPECT_TRUE(hism_result.transposed.validate());

  const auto crs_result = kernels::run_crs_transpose(testing::crs_stage(coo), config);
  EXPECT_TRUE(coo_equal(crs_result.transposed, expected));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposeAgreement,
    ::testing::Values(
        TransposeCase{8, 8, 10, 8, 1}, TransposeCase{16, 16, 60, 8, 2},
        TransposeCase{64, 64, 100, 8, 3}, TransposeCase{64, 64, 1000, 8, 4},
        TransposeCase{65, 64, 900, 8, 5}, TransposeCase{64, 65, 900, 8, 6},
        TransposeCase{200, 40, 800, 8, 7}, TransposeCase{40, 200, 800, 8, 8},
        TransposeCase{513, 513, 2000, 8, 9}, TransposeCase{100, 100, 500, 16, 10},
        TransposeCase{300, 300, 3000, 16, 11}, TransposeCase{1000, 1000, 5000, 32, 12},
        TransposeCase{500, 500, 8000, 64, 13}, TransposeCase{129, 257, 1500, 64, 14},
        TransposeCase{4097, 63, 2000, 64, 15}, TransposeCase{31, 31, 961, 16, 16},
        TransposeCase{77, 77, 1, 8, 17}, TransposeCase{256, 256, 4000, 128, 18},
        TransposeCase{300, 300, 2500, 256, 19}));

// ---------------------------------------------------------------------------
// STM timing properties under parameter sweeps.

struct StmCase {
  u32 section;
  u32 bandwidth;
  u32 lines;
  bool strict;
  u64 seed;
};

void PrintTo(const StmCase& c, std::ostream* os) {
  *os << "s=" << c.section << " B=" << c.bandwidth << " L=" << c.lines
      << (c.strict ? " strict" : " relaxed") << " seed=" << c.seed;
}

class StmProperties : public ::testing::TestWithParam<StmCase> {
 protected:
  std::vector<StmEntry> random_block(u32 section, usize count, u64 seed) {
    Rng rng(seed);
    std::vector<StmEntry> entries;
    for (const u64 cell :
         rng.sample_without_replacement(static_cast<u64>(section) * section, count)) {
      entries.push_back({static_cast<u8>(cell / section), static_cast<u8>(cell % section),
                         static_cast<u32>(cell * 13 + 1)});
    }
    return entries;  // sample is sorted, hence row-major
  }
};

TEST_P(StmProperties, FunctionalTransposeIsExact) {
  const StmCase& param = GetParam();
  StmConfig config{.section = param.section,
                   .bandwidth = param.bandwidth,
                   .lines = param.lines,
                   .strict_consecutive_lines = param.strict};
  StmUnit unit(config);
  const auto entries =
      random_block(param.section, param.section * param.section / 3, param.seed);
  const auto result = unit.transpose_block(entries);

  // Same multiset of payloads, coordinates swapped, output row-major.
  ASSERT_EQ(result.transposed.size(), entries.size());
  std::vector<StmEntry> expected;
  for (const StmEntry& e : entries) expected.push_back({e.col, e.row, e.value_bits});
  std::sort(expected.begin(), expected.end(), [](const StmEntry& a, const StmEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  EXPECT_EQ(result.transposed, expected);
}

TEST_P(StmProperties, CycleBoundsHold) {
  const StmCase& param = GetParam();
  StmConfig config{.section = param.section,
                   .bandwidth = param.bandwidth,
                   .lines = param.lines,
                   .strict_consecutive_lines = param.strict};
  StmUnit unit(config);
  const usize count = param.section * param.section / 4;
  const auto entries = random_block(param.section, count, param.seed + 1);
  const auto result = unit.transpose_block(entries);

  // Each phase moves at most B elements per cycle, at least one per cycle.
  EXPECT_GE(result.write_cycles, ceil_div(count, param.bandwidth));
  EXPECT_LE(result.write_cycles, count);
  EXPECT_GE(result.read_cycles, ceil_div(count, param.bandwidth));
  EXPECT_LE(result.read_cycles, count);
  EXPECT_EQ(result.cycles, result.write_cycles + result.read_cycles + 6u);
}

TEST_P(StmProperties, RelaxedRuleNeverSlower) {
  const StmCase& param = GetParam();
  StmConfig strict{.section = param.section,
                   .bandwidth = param.bandwidth,
                   .lines = param.lines,
                   .strict_consecutive_lines = true};
  StmConfig relaxed = strict;
  relaxed.strict_consecutive_lines = false;
  const auto entries =
      random_block(param.section, param.section * param.section / 5, param.seed + 2);
  StmUnit strict_unit(strict);
  StmUnit relaxed_unit(relaxed);
  EXPECT_LE(relaxed_unit.transpose_block(entries).cycles,
            strict_unit.transpose_block(entries).cycles);
}

TEST_P(StmProperties, MoreLinesNeverSlower) {
  const StmCase& param = GetParam();
  if (param.lines * 2 > param.section) GTEST_SKIP();
  StmConfig narrow{.section = param.section,
                   .bandwidth = param.bandwidth,
                   .lines = param.lines,
                   .strict_consecutive_lines = param.strict};
  StmConfig wide = narrow;
  wide.lines = param.lines * 2;
  const auto entries =
      random_block(param.section, param.section * param.section / 6, param.seed + 3);
  StmUnit narrow_unit(narrow);
  StmUnit wide_unit(wide);
  EXPECT_LE(wide_unit.transpose_block(entries).cycles,
            narrow_unit.transpose_block(entries).cycles);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StmProperties,
    ::testing::Values(StmCase{8, 1, 1, true, 100}, StmCase{8, 2, 2, true, 101},
                      StmCase{8, 4, 4, true, 102}, StmCase{16, 4, 2, true, 103},
                      StmCase{16, 8, 4, false, 104}, StmCase{32, 4, 4, true, 105},
                      StmCase{64, 1, 4, true, 106}, StmCase{64, 2, 1, true, 107},
                      StmCase{64, 4, 4, true, 108}, StmCase{64, 8, 8, true, 109},
                      StmCase{64, 8, 2, false, 110}, StmCase{128, 4, 4, true, 111}));

// ---------------------------------------------------------------------------
// Kernel-vs-kernel agreement on structured patterns.

class PatternCase : public ::testing::TestWithParam<int> {};

TEST_P(PatternCase, KernelsAgreeOnStructuredMatrices) {
  const int pattern = GetParam();
  Coo coo(96, 96);
  switch (pattern) {
    case 0:  // diagonal
      for (Index i = 0; i < 96; ++i) coo.add(i, i, static_cast<float>(i + 1));
      break;
    case 1:  // anti-diagonal
      for (Index i = 0; i < 96; ++i) coo.add(i, 95 - i, static_cast<float>(i + 1));
      break;
    case 2:  // single dense row
      for (Index j = 0; j < 96; ++j) coo.add(17, j, static_cast<float>(j + 1));
      break;
    case 3:  // single dense column
      for (Index i = 0; i < 96; ++i) coo.add(i, 31, static_cast<float>(i + 1));
      break;
    case 4:  // checkerboard
      for (Index i = 0; i < 96; ++i) {
        for (Index j = (i % 2); j < 96; j += 2) coo.add(i, j, 1.0f + static_cast<float>(j));
      }
      break;
    case 5:  // lower triangle band
      for (Index i = 0; i < 96; ++i) {
        for (Index j = i >= 5 ? i - 5 : 0; j <= i; ++j) {
          coo.add(i, j, static_cast<float>(i + j + 1));
        }
      }
      break;
    default:
      FAIL();
  }
  coo.canonicalize();
  const Coo expected = coo.transposed();

  vsim::MachineConfig config;
  config.section = 16;
  EXPECT_TRUE(coo_equal(
      kernels::run_hism_transpose(testing::hism_stage(coo, config.section), config)
          .transposed.to_coo(),
      expected));
  EXPECT_TRUE(coo_equal(
      kernels::run_crs_transpose(testing::crs_stage(coo), config).transposed, expected));
}

INSTANTIATE_TEST_SUITE_P(Patterns, PatternCase, ::testing::Range(0, 6));

}  // namespace
}  // namespace smtu
