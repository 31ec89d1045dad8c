#include "formats/coo.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace smtu {
namespace {

// A closure rather than a function, so std::sort inlines the comparison.
constexpr auto row_major_less = [](const CooEntry& a, const CooEntry& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
};

}  // namespace

Coo::Coo(Index rows, Index cols, std::vector<CooEntry> entries)
    : rows_(rows), cols_(cols), entries_(std::move(entries)) {
  for (const CooEntry& e : entries_) {
    SMTU_CHECK_MSG(e.row < rows_ && e.col < cols_,
                   format("entry (%llu,%llu) outside %llux%llu",
                          static_cast<unsigned long long>(e.row),
                          static_cast<unsigned long long>(e.col),
                          static_cast<unsigned long long>(rows_),
                          static_cast<unsigned long long>(cols_)));
  }
}

void Coo::add(Index row, Index col, float value) {
  SMTU_CHECK_MSG(row < rows_ && col < cols_, "COO entry out of bounds");
  entries_.push_back({row, col, value});
}

void Coo::canonicalize() {
  // Already-canonical input (every suite matrix and shard panel) skips the
  // sort after an O(n) scan.
  if (is_canonical()) return;
  std::sort(entries_.begin(), entries_.end(), row_major_less);
  usize write = 0;
  for (usize read = 0; read < entries_.size();) {
    CooEntry merged = entries_[read++];
    while (read < entries_.size() && entries_[read].row == merged.row &&
           entries_[read].col == merged.col) {
      merged.value += entries_[read++].value;
    }
    if (merged.value != 0.0f) entries_[write++] = merged;
  }
  entries_.resize(write);
}

bool Coo::is_canonical() const {
  for (usize i = 0; i < entries_.size(); ++i) {
    if (entries_[i].value == 0.0f) return false;
    if (i > 0 && !row_major_less(entries_[i - 1], entries_[i])) return false;
  }
  return true;
}

const Coo& Coo::canonical_view(Coo& storage) const {
  if (is_canonical()) return *this;
  storage = *this;
  storage.canonicalize();
  return storage;
}

Coo Coo::transposed() const {
  Coo result(cols_, rows_);
  result.entries_.reserve(entries_.size());
  for (const CooEntry& e : entries_) result.entries_.push_back({e.col, e.row, e.value});
  result.canonicalize();
  return result;
}

double Coo::avg_nnz_per_row() const {
  if (rows_ == 0) return 0.0;
  return static_cast<double>(entries_.size()) / static_cast<double>(rows_);
}

bool structurally_equal(Coo lhs, Coo rhs) {
  if (lhs.rows() != rhs.rows() || lhs.cols() != rhs.cols()) return false;
  lhs.canonicalize();
  rhs.canonicalize();
  return lhs.entries() == rhs.entries();
}

}  // namespace smtu
