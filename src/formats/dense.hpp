// Row-major dense matrix. Used for oracle transposes on small matrices and
// for the paper's §II observation that dense transposition is a strided copy.
#pragma once

#include <vector>

#include "formats/coo.hpp"
#include "support/types.hpp"

namespace smtu {

class Dense {
 public:
  Dense() = default;
  Dense(Index rows, Index cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}
  // Takes `data` as the row-major values of a rows x cols matrix.
  Dense(Index rows, Index cols, std::vector<float> data);

  static Dense from_coo(const Coo& coo);
  Coo to_coo() const;

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  float& at(Index row, Index col);
  float at(Index row, Index col) const;

  // Strided-copy transpose (the trivial dense algorithm of §II).
  Dense transposed() const;

  friend bool operator==(const Dense&, const Dense&) = default;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<float> data_;
};

}  // namespace smtu
