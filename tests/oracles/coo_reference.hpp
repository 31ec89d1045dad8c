// A comparison-sort oracle for canonical COO order, independent of the
// library's ordering code: std::stable_sort by (row, col), then one merge
// that sums each coordinate's values in input order and drops zeros. It
// calls neither Coo::canonicalize nor structurally_equal, and the tests
// compare its output with the library's entry by entry.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "formats/coo.hpp"
#include "support/rng.hpp"

namespace smtu::testing {

inline std::vector<CooEntry> reference_canonical(std::vector<CooEntry> entries) {
  std::stable_sort(entries.begin(), entries.end(), [](const CooEntry& a, const CooEntry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  std::vector<CooEntry> merged;
  for (usize i = 0; i < entries.size();) {
    CooEntry sum = entries[i++];
    while (i < entries.size() && entries[i].row == sum.row && entries[i].col == sum.col) {
      sum.value += entries[i++].value;
    }
    if (sum.value != 0.0f) merged.push_back(sum);
  }
  return merged;
}

// Every entry mirrored, in input order.
inline std::vector<CooEntry> mirrored(const std::vector<CooEntry>& entries) {
  std::vector<CooEntry> mirror;
  mirror.reserve(entries.size());
  for (const CooEntry& e : entries) mirror.push_back({e.col, e.row, e.value});
  return mirror;
}

// Entries at `cells` distinct coordinates of a rows x cols matrix, shuffled.
// Each coordinate gets one of: an explicit zero, a pair that cancels, or
// one to three entries with distinct values, so merging is order-sensitive.
inline std::vector<CooEntry> messy_entries(Index rows, Index cols, usize cells, Rng& rng) {
  std::vector<CooEntry> entries;
  const auto value = [&rng] { return static_cast<float>(rng.uniform(-2.0, 2.0)); };
  for (const u64 cell : rng.sample_without_replacement(rows * cols, cells)) {
    const Index row = cell / cols;
    const Index col = cell % cols;
    switch (rng.below(5)) {
      case 0:
        entries.push_back({row, col, 0.0f});
        break;
      case 1: {
        const float v = value();
        entries.push_back({row, col, v});
        entries.push_back({row, col, -v});
        break;
      }
      default:
        for (u64 copies = 1 + rng.below(3); copies > 0; --copies) {
          entries.push_back({row, col, value()});
        }
    }
  }
  rng.shuffle(entries);
  return entries;
}

// Entry-by-entry equality that names the first difference.
inline ::testing::AssertionResult same_entries(const std::vector<CooEntry>& got,
                                               const std::vector<CooEntry>& want) {
  for (usize i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] == want[i]) continue;
    return ::testing::AssertionFailure()
           << "entry " << i << ": (" << got[i].row << ", " << got[i].col << ", " << got[i].value
           << ") where the oracle has (" << want[i].row << ", " << want[i].col << ", "
           << want[i].value << ")";
  }
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " entries where the oracle has " << want.size();
  }
  return ::testing::AssertionSuccess();
}

}  // namespace smtu::testing
