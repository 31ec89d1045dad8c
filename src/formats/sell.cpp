#include "formats/sell.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "support/assert.hpp"

namespace smtu {

SellCSigma SellCSigma::from_coo(const Coo& coo, u32 chunk, u32 sigma) {
  SMTU_CHECK_MSG(chunk >= 1, "SELL-C-sigma chunk height must be positive");
  Coo storage;
  const Coo& canonical = coo.canonical_view(storage);

  SellCSigma sell;
  sell.rows_ = canonical.rows();
  sell.cols_ = canonical.cols();
  sell.nnz_ = canonical.nnz();
  sell.chunk_ = chunk;
  sell.sigma_ = sigma;

  const usize rows = canonical.rows();
  std::vector<u32> length(rows, 0);
  for (const CooEntry& e : canonical.entries()) length[e.row]++;

  // σ-window sort: permutation of row ids, longest first inside each window.
  // Stable, so ties keep the original order (deterministic layout).
  std::vector<u32> order(rows);
  std::iota(order.begin(), order.end(), 0);
  const usize window = sigma == 0 ? std::max<usize>(1, rows) : sigma;
  for (usize begin = 0; begin < rows; begin += window) {
    const usize end = std::min(rows, begin + window);
    std::stable_sort(order.begin() + static_cast<std::ptrdiff_t>(begin),
                     order.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](u32 a, u32 b) { return length[a] > length[b]; });
  }

  const usize num_chunks = (rows + chunk - 1) / chunk;
  const usize padded_rows = num_chunks * chunk;
  sell.perm_.assign(padded_rows, kPadRow);
  sell.row_len_.assign(padded_rows, 0);
  for (usize p = 0; p < rows; ++p) {
    sell.perm_[p] = order[p];
    sell.row_len_[p] = length[order[p]];
  }

  sell.chunk_width_.assign(num_chunks, 0);
  sell.chunk_ptr_.assign(num_chunks + 1, 0);
  for (usize c = 0; c < num_chunks; ++c) {
    u32 width = 0;
    for (usize r = 0; r < chunk; ++r) width = std::max(width, sell.row_len_[c * chunk + r]);
    sell.chunk_width_[c] = width;
    sell.chunk_ptr_[c + 1] = sell.chunk_ptr_[c] + width * chunk;
  }

  const usize slots = sell.chunk_ptr_[num_chunks];
  sell.col_idx_.assign(slots, 0);
  sell.values_.assign(slots, 0.0f);

  // Canonical COO is row-major with sorted columns, so filling left to right
  // keeps each row's slots in ascending-column order (the Csr::spmv order).
  std::vector<u32> sorted_pos(rows);  // original row -> sorted position
  for (usize p = 0; p < rows; ++p) sorted_pos[order[p]] = static_cast<u32>(p);
  std::vector<u32> fill(rows, 0);
  for (const CooEntry& e : canonical.entries()) {
    const u32 p = sorted_pos[e.row];
    const u32 c = p / chunk;
    const u32 lane = p % chunk;
    const usize slot = sell.chunk_ptr_[c] + static_cast<usize>(fill[e.row]++) * chunk + lane;
    sell.col_idx_[slot] = static_cast<u32>(e.col);
    sell.values_[slot] = e.value;
  }
  return sell;
}

Coo SellCSigma::to_coo() const {
  Coo coo(rows_, cols_);
  coo.entries().reserve(nnz_);
  for (usize p = 0; p < perm_.size(); ++p) {
    if (perm_[p] == kPadRow) continue;
    const u32 c = static_cast<u32>(p) / chunk_;
    const u32 lane = static_cast<u32>(p) % chunk_;
    for (u32 k = 0; k < row_len_[p]; ++k) {
      const usize slot = chunk_ptr_[c] + static_cast<usize>(k) * chunk_ + lane;
      coo.entries().push_back({perm_[p], col_idx_[slot], values_[slot]});
    }
  }
  coo.canonicalize();
  return coo;
}

double SellCSigma::fill_ratio() const {
  if (nnz_ == 0) return 0.0;
  return static_cast<double>(col_idx_.size()) / static_cast<double>(nnz_);
}

u64 SellCSigma::padded_slots() const { return col_idx_.size() - nnz_; }

u64 SellCSigma::storage_bytes() const {
  return col_idx_.size() * sizeof(u32) + values_.size() * sizeof(float) +
         chunk_width_.size() * sizeof(u32) + perm_.size() * sizeof(u32);
}

bool SellCSigma::validate() const {
  const usize num_chunks = chunk_width_.size();
  if (perm_.size() != num_chunks * chunk_ || row_len_.size() != perm_.size()) return false;
  if (chunk_ptr_.size() != num_chunks + 1 || chunk_ptr_[0] != 0) return false;
  if (col_idx_.size() != chunk_ptr_[num_chunks] || values_.size() != col_idx_.size())
    return false;
  if (perm_.size() < rows_) return false;

  std::vector<bool> seen(rows_, false);
  usize counted = 0;
  for (usize p = 0; p < perm_.size(); ++p) {
    if (p >= rows_) {
      // Positions past the last real row are padding.
      if (perm_[p] != kPadRow || row_len_[p] != 0) return false;
      continue;
    }
    if (perm_[p] >= rows_ || seen[perm_[p]]) return false;  // not a permutation
    seen[perm_[p]] = true;
    const u32 c = static_cast<u32>(p) / chunk_;
    if (row_len_[p] > chunk_width_[c]) return false;
    for (u32 k = 0; k < chunk_width_[c]; ++k) {
      const usize slot = chunk_ptr_[c] + static_cast<usize>(k) * chunk_ + (p % chunk_);
      if (k < row_len_[p]) {
        if (col_idx_[slot] >= cols_) return false;
        ++counted;
      } else if (col_idx_[slot] != 0 || values_[slot] != 0.0f) {
        return false;  // padding slots must be (col 0, value 0)
      }
    }
  }
  for (usize c = 0; c < num_chunks; ++c) {
    if (chunk_ptr_[c + 1] - chunk_ptr_[c] != static_cast<usize>(chunk_width_[c]) * chunk_)
      return false;
  }
  return counted == nnz_;
}

std::vector<float> SellCSigma::spmv(const std::vector<float>& x) const {
  SMTU_CHECK_MSG(x.size() == cols_, "spmv dimension mismatch");
  std::vector<float> y(rows_, 0.0f);
  // Streams padding slots exactly like the vector kernel: +-0.0 adds that
  // never perturb the accumulator bits.
  for (usize p = 0; p < perm_.size(); ++p) {
    if (perm_[p] == kPadRow) continue;
    const u32 c = static_cast<u32>(p) / chunk_;
    float acc = 0.0f;
    for (u32 k = 0; k < chunk_width_[c]; ++k) {
      const usize slot = chunk_ptr_[c] + static_cast<usize>(k) * chunk_ + (p % chunk_);
      acc += values_[slot] * x[col_idx_[slot]];
    }
    y[perm_[p]] = acc;
  }
  return y;
}

}  // namespace smtu
