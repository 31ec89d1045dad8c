// SELL-C-σ (Kreutzer et al., arXiv:1307.6209): the unified SIMD-friendly
// sparse format. Rows are sorted by descending length inside windows of σ
// consecutive rows, then grouped into chunks of C rows; each chunk is padded
// only to the length of its own longest row and stored lane-major, so a
// C-lane vector unit streams it with no per-row control flow. σ trades
// sorting scope (σ=1 keeps the original order, σ>=rows is a global sort)
// against how far apart a row may land from its neighbours.
//
// Degenerate corners: C=1/σ=1 is CSR with per-row widths; C=rows/σ=1 is ELL.
#pragma once

#include <vector>

#include "formats/coo.hpp"
#include "support/types.hpp"

namespace smtu {

class SellCSigma {
 public:
  SellCSigma() = default;

  // Chunk height C must be positive; sigma == 0 means "sort globally"
  // (equivalent to sigma >= rows). Sorting is stable, so equal-length rows
  // keep their original relative order and the format is deterministic.
  static SellCSigma from_coo(const Coo& coo, u32 chunk, u32 sigma);

  Coo to_coo() const;

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  usize nnz() const { return nnz_; }
  u32 chunk() const { return chunk_; }        // C
  u32 sigma() const { return sigma_; }        // σ (0 = global sort)
  u32 num_chunks() const { return static_cast<u32>(chunk_width_.size()); }

  // Sorted-position p (0 <= p < num_chunks*C) holds original row perm()[p];
  // positions past the last real row carry kPadRow. row_len()[p] is that
  // row's non-zero count (0 for padding positions).
  static constexpr u32 kPadRow = 0xffffffffu;
  const std::vector<u32>& perm() const { return perm_; }
  const std::vector<u32>& row_len() const { return row_len_; }

  // Per-chunk width (longest row in the chunk) and slot offsets: chunk c
  // occupies slots [chunk_ptr()[c], chunk_ptr()[c+1]), always C lanes wide.
  const std::vector<u32>& chunk_width() const { return chunk_width_; }
  const std::vector<u32>& chunk_ptr() const { return chunk_ptr_; }

  // Lane-major chunk storage: the k-th non-zero of the row at sorted
  // position p = c*C + r sits at slot chunk_ptr()[c] + k*C + r. Padding
  // slots carry column 0 and value +0.0f, so a vector kernel may stream
  // them: acc + (value * x[0]) adds a signed zero, which never changes the
  // accumulator bits (the accumulator is never -0.0 when it starts at +0.0).
  const std::vector<u32>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  // Stored slots / non-zeros — the chunk-padding waste (ELL's fill ratio
  // with per-chunk instead of global width; ELL is C = rows, σ = 1).
  double fill_ratio() const;
  u64 padded_slots() const;  // stored slots minus real non-zeros

  // values + col_idx slots, plus the per-chunk widths and the permutation —
  // the arrays a SpMV kernel actually has to read.
  u64 storage_bytes() const;

  bool validate() const;

  // Host reference walk in the exact kernel order: per sorted row, ascending
  // slot k, acc += value * x[col] in f32 — bit-identical to Csr::spmv.
  std::vector<float> spmv(const std::vector<float>& x) const;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  usize nnz_ = 0;
  u32 chunk_ = 1;
  u32 sigma_ = 1;
  std::vector<u32> perm_;
  std::vector<u32> row_len_;
  std::vector<u32> chunk_width_;
  std::vector<u32> chunk_ptr_;
  std::vector<u32> col_idx_;
  std::vector<float> values_;
};

}  // namespace smtu
