#include "formats/csr.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace smtu {

Csr Csr::from_coo(const Coo& coo) {
  Coo storage;
  const Coo& canonical = coo.canonical_view(storage);

  Csr csr;
  csr.rows_ = canonical.rows();
  csr.cols_ = canonical.cols();
  SMTU_CHECK_MSG(canonical.nnz() <= 0xffffffffULL, "CSR uses 32-bit offsets");
  csr.row_ptr_.assign(csr.rows_ + 1, 0);
  csr.col_idx_.reserve(canonical.nnz());
  csr.values_.reserve(canonical.nnz());

  for (const CooEntry& e : canonical.entries()) {
    csr.row_ptr_[e.row + 1]++;
    csr.col_idx_.push_back(static_cast<u32>(e.col));
    csr.values_.push_back(e.value);
  }
  for (usize r = 0; r < csr.rows_; ++r) csr.row_ptr_[r + 1] += csr.row_ptr_[r];
  return csr;
}

Coo Csr::to_coo() const {
  Coo coo(rows_, cols_);
  coo.entries().reserve(nnz());
  for (Index r = 0; r < rows_; ++r) {
    for (u32 k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      coo.entries().push_back({r, col_idx_[k], values_[k]});
    }
  }
  return coo;
}

u64 Csr::storage_bytes() const {
  return static_cast<u64>(values_.size()) * sizeof(float) +
         static_cast<u64>(col_idx_.size()) * sizeof(u32) +
         static_cast<u64>(row_ptr_.size()) * sizeof(u32);
}

bool Csr::validate(bool require_sorted_rows) const {
  if (row_ptr_.size() != rows_ + 1) return false;
  if (row_ptr_.front() != 0) return false;
  if (row_ptr_.back() != values_.size()) return false;
  if (col_idx_.size() != values_.size()) return false;
  for (Index r = 0; r < rows_; ++r) {
    if (row_ptr_[r] > row_ptr_[r + 1]) return false;
    for (u32 k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] >= cols_) return false;
      if (require_sorted_rows && k > row_ptr_[r] && col_idx_[k - 1] >= col_idx_[k]) return false;
    }
  }
  return true;
}

Csr Csr::transposed_pissanetsky() const {
  Csr out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(cols_ + 1, 0);
  out.col_idx_.assign(nnz(), 0);
  out.values_.assign(nnz(), 0.0f);

  // Phase 1 (Fig. 9 lines 1-2): per-column non-zero counts, shifted by one so
  // the scan leaves start pointers in place.
  for (const u32 col : col_idx_) out.row_ptr_[col + 1]++;

  // Phase 2 (line 3): exclusive scan-add.
  for (Index c = 0; c < cols_; ++c) out.row_ptr_[c + 1] += out.row_ptr_[c];

  // Phase 3 (lines 4-13): permutation pass. IAT entries are advanced as rows
  // of the transpose fill; we keep a scratch cursor so IA stays intact.
  std::vector<u32> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (Index r = 0; r < rows_; ++r) {
    for (u32 k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const u32 col = col_idx_[k];
      const u32 slot = cursor[col]++;
      out.col_idx_[slot] = static_cast<u32>(r);
      out.values_[slot] = values_[k];
    }
  }
  return out;
}

std::vector<float> Csr::spmv(const std::vector<float>& x) const {
  SMTU_CHECK_MSG(x.size() == cols_, "spmv dimension mismatch");
  std::vector<float> y(rows_, 0.0f);
  for (Index r = 0; r < rows_; ++r) {
    float acc = 0.0f;
    for (u32 k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      acc += values_[k] * x[col_idx_[k]];
    }
    y[r] = acc;
  }
  return y;
}

}  // namespace smtu
