#include "formats/csc.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace smtu {

Csc Csc::from_coo(const Coo& coo) {
  Coo storage;
  const Coo& canonical = coo.canonical_view(storage);

  Csc csc;
  csc.rows_ = canonical.rows();
  csc.cols_ = canonical.cols();
  SMTU_CHECK_MSG(canonical.nnz() <= 0xffffffffULL, "CSC uses 32-bit offsets");
  csc.col_ptr_.assign(csc.cols_ + 1, 0);
  csc.row_idx_.assign(canonical.nnz(), 0);
  csc.values_.assign(canonical.nnz(), 0.0f);

  for (const CooEntry& e : canonical.entries()) csc.col_ptr_[e.col + 1]++;
  for (Index c = 0; c < csc.cols_; ++c) csc.col_ptr_[c + 1] += csc.col_ptr_[c];

  std::vector<u32> cursor(csc.col_ptr_.begin(), csc.col_ptr_.end() - 1);
  for (const CooEntry& e : canonical.entries()) {
    const u32 slot = cursor[e.col]++;
    csc.row_idx_[slot] = static_cast<u32>(e.row);
    csc.values_[slot] = e.value;
  }
  return csc;
}

Coo Csc::to_coo() const {
  Coo coo(rows_, cols_);
  coo.entries().reserve(nnz());
  for (Index c = 0; c < cols_; ++c) {
    for (u32 k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      coo.entries().push_back({row_idx_[k], c, values_[k]});
    }
  }
  return coo;
}

bool Csc::validate() const {
  if (col_ptr_.size() != cols_ + 1) return false;
  if (col_ptr_.front() != 0 || col_ptr_.back() != values_.size()) return false;
  if (row_idx_.size() != values_.size()) return false;
  for (Index c = 0; c < cols_; ++c) {
    if (col_ptr_[c] > col_ptr_[c + 1]) return false;
    for (u32 k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      if (row_idx_[k] >= rows_) return false;
      if (k > col_ptr_[c] && row_idx_[k - 1] >= row_idx_[k]) return false;
    }
  }
  return true;
}

Coo Csc::transposed_coo() const {
  Coo coo(cols_, rows_);
  coo.entries().reserve(nnz());
  for (Index c = 0; c < cols_; ++c) {
    for (u32 k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      coo.entries().push_back({c, row_idx_[k], values_[k]});
    }
  }
  return coo;
}

}  // namespace smtu
