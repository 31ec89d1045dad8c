// Coordinate (COO) sparse matrix: the interchange format of this project.
//
// Every other representation (CSR, CSC, JD, HiSM, simulator memory images)
// converts to and from COO, and correctness of a transposition is always
// established by comparing canonical COO forms.
//
// Canonical order is row-major: (row, col) strictly increasing, so every
// coordinate appears once, and no entry holds an explicit zero. It is
// unique, so two canonical forms of one matrix are equal entry by entry.
//
// Ordering is linear where the shape allows it. A canonicalize() or
// transposed() that has to reorder entries uses counting passes (a
// histogram over a dimension, a prefix sum, a scatter: the transpose of the
// paper's Fig. 9) when each dimension it counts over is at most a small
// multiple of nnz; other shapes, such as a 1 x 2^30 row, take a comparison
// sort instead. The input's shape alone picks the path, and both give the
// same result: duplicate coordinates are summed in input order, since both
// paths sort stably.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace smtu {

// Whether a counting pass with one counter per key in [0, dim) suits `nnz`
// entries: the counters must not outnumber the entries by more than a small
// factor, and fit 32 bits. Shared by every COO ordering path.
bool counting_order_fits(Index dim, usize nnz);

struct CooEntry {
  Index row = 0;
  Index col = 0;
  float value = 0.0f;

  friend bool operator==(const CooEntry&, const CooEntry&) = default;
};

class Coo {
 public:
  Coo() = default;
  Coo(Index rows, Index cols) : rows_(rows), cols_(cols) {}
  Coo(Index rows, Index cols, std::vector<CooEntry> entries);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  usize nnz() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<CooEntry>& entries() const { return entries_; }
  std::vector<CooEntry>& entries() { return entries_; }

  // Appends an entry; bounds-checked.
  void add(Index row, Index col, float value);

  // Sorts row-major, merges duplicate coordinates by summation in input
  // order (((a + b) + c) for three), and drops explicit zeros, including
  // those merging produces. Idempotent; canonical input costs one O(n) scan.
  void canonicalize();
  bool is_canonical() const;

  // `*this` when already canonical, else a canonicalized copy placed in
  // `storage`: builders read canonical input in place instead of copying it.
  const Coo& canonical_view(Coo& storage) const;

  // Returns the transpose (rows/cols swapped, each entry mirrored), canonical.
  // A canonical input takes one counting scatter by column.
  Coo transposed() const;

  // Average number of non-zeros per row (the paper's ANZ metric).
  double avg_nnz_per_row() const;

  // Exact structural + value equality of the canonical forms. Identical
  // entry lists are equal without canonicalizing; otherwise a side that is
  // already canonical is compared in place. Transposition never changes
  // values, so exact float compare is correct.
  friend bool structurally_equal(const Coo& lhs, const Coo& rhs);

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<CooEntry> entries_;
};

}  // namespace smtu
