// Coordinate (COO) sparse matrix: the interchange format of this project.
//
// Every other representation (CSR, CSC, JD, HiSM, simulator memory images)
// converts to and from COO, and correctness of a transposition is always
// established by comparing canonical COO forms.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace smtu {

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

  // Sorts row-major, merges duplicate coordinates by summation, and drops
  // explicit zeros produced by merging. Idempotent.
  void canonicalize();
  bool is_canonical() const;

  // `*this` when already canonical, else a canonicalized copy placed in
  // `storage`: builders read canonical input in place instead of copying it.
  const Coo& canonical_view(Coo& storage) const;

  // Returns the transpose (rows/cols swapped, each entry mirrored), canonical.
  Coo transposed() const;

  // Average number of non-zeros per row (the paper's ANZ metric).
  double avg_nnz_per_row() const;

  // Exact structural + value equality after canonicalization of both sides.
  // Transposition never changes values, so exact float compare is correct.
  friend bool structurally_equal(Coo lhs, Coo rhs);

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<CooEntry> entries_;
};

}  // namespace smtu
