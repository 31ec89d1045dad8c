#include "formats/dense.hpp"

#include <utility>

#include "support/assert.hpp"

namespace smtu {

Dense::Dense(Index rows, Index cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  SMTU_CHECK_MSG(data_.size() == rows * cols, "dense data must hold rows x cols values");
}

Dense Dense::from_coo(const Coo& coo) {
  Coo storage;
  const Coo& canonical = coo.canonical_view(storage);
  Dense dense(canonical.rows(), canonical.cols());
  for (const CooEntry& e : canonical.entries()) dense.at(e.row, e.col) = e.value;
  return dense;
}

Coo Dense::to_coo() const {
  Coo coo(rows_, cols_);
  for (Index r = 0; r < rows_; ++r) {
    for (Index c = 0; c < cols_; ++c) {
      const float v = at(r, c);
      if (v != 0.0f) coo.entries().push_back({r, c, v});
    }
  }
  return coo;
}

float& Dense::at(Index row, Index col) {
  SMTU_DCHECK(row < rows_ && col < cols_);
  return data_[row * cols_ + col];
}

float Dense::at(Index row, Index col) const {
  SMTU_DCHECK(row < rows_ && col < cols_);
  return data_[row * cols_ + col];
}

Dense Dense::transposed() const {
  Dense out(cols_, rows_);
  for (Index r = 0; r < rows_; ++r) {
    for (Index c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

}  // namespace smtu
