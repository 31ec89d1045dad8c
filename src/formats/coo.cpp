#include "formats/coo.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace smtu {
namespace {

// A closure rather than a function, so std::stable_sort inlines the
// comparison.
constexpr auto row_major_less = [](const CooEntry& a, const CooEntry& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
};

// Where each key's run starts in a stable counting sort of `entries` by
// `Field`, whose values lie in [0, dim): a histogram, then an exclusive
// prefix sum. Scattering in input order through the result keeps entries
// with equal keys in input order. An entry written past the shape through
// entries() (a kernel's corrupt read-back, say) aborts here instead of
// indexing past the counters.
template <Index CooEntry::*Field>
std::vector<u32> bucket_starts(std::span<const CooEntry> entries, Index dim) {
  std::vector<u32> start(dim, 0);
  for (const CooEntry& e : entries) {
    SMTU_CHECK_MSG(e.*Field < dim, "COO entry outside the matrix");
    ++start[e.*Field];
  }
  std::exclusive_scan(start.begin(), start.end(), start.begin(), u32{0});
  return start;
}

}  // namespace

bool counting_order_fits(Index dim, usize nnz) {
  // Four counters per entry keep the histogram and the prefix sum cheaper
  // than the scatter they set up.
  constexpr u64 kCountersPerEntry = 4;
  return nnz <= 0xffffffffULL && dim <= kCountersPerEntry * nnz;
}

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
  if (counting_order_fits(std::max(rows_, cols_), entries_.size())) {
    // Two stable counting passes through one scratch buffer: by column, then
    // by row, which leaves row-major order with ties in input order.
    std::vector<CooEntry> scratch(entries_.size());
    std::vector<u32> start = bucket_starts<&CooEntry::col>(entries_, cols_);
    for (const CooEntry& e : entries_) scratch[start[e.col]++] = e;
    start = bucket_starts<&CooEntry::row>(scratch, rows_);
    for (const CooEntry& e : scratch) entries_[start[e.row]++] = e;
  } else {
    std::stable_sort(entries_.begin(), entries_.end(), row_major_less);
  }
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
  if (counting_order_fits(cols_, entries_.size()) && is_canonical()) {
    // One column scatter. Row-major input meets each column's rows in
    // ascending order, so every bucket comes out canonical.
    std::vector<u32> start = bucket_starts<&CooEntry::col>(entries_, cols_);
    result.entries_.resize(entries_.size());
    for (const CooEntry& e : entries_) result.entries_[start[e.col]++] = {e.col, e.row, e.value};
    return result;
  }
  result.entries_.reserve(entries_.size());
  for (const CooEntry& e : entries_) result.entries_.push_back({e.col, e.row, e.value});
  result.canonicalize();
  return result;
}

double Coo::avg_nnz_per_row() const {
  if (rows_ == 0) return 0.0;
  return static_cast<double>(entries_.size()) / static_cast<double>(rows_);
}

bool structurally_equal(const Coo& lhs, const Coo& rhs) {
  if (lhs.rows() != rhs.rows() || lhs.cols() != rhs.cols()) return false;
  // Equal entry lists canonicalize alike, so a passing check, the common
  // case, costs one comparison and no canonical scans.
  if (lhs.entries() == rhs.entries()) return true;
  Coo lhs_storage;
  Coo rhs_storage;
  return lhs.canonical_view(lhs_storage).entries() == rhs.canonical_view(rhs_storage).entries();
}

}  // namespace smtu
