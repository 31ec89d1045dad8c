// The s x s in-processor memory at the heart of the STM (Fig. 3).
//
// Each cell holds a 32-bit word (an element value or a block pointer) plus a
// non-zero indicator bit. Data enters row-wise and leaves column-wise (or
// vice versa), which performs the per-block transposition.
#pragma once

#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace smtu {

class SxsMemory {
 public:
  explicit SxsMemory(u32 section);

  u32 section() const { return section_; }
  usize occupancy() const { return occupied_count_; }

  // The `icm` instruction: resets every non-zero indicator.
  void clear();

  // Inserts a value; inserting into an occupied cell aborts (a valid
  // block-array never stores a position twice). Inline: this sits on the
  // per-element fill path of every transpose kernel.
  void insert(u32 row, u32 col, u32 value_bits) {
    const usize c = cell(row, col);
    if (stamp_[c] == epoch_) [[unlikely]] duplicate_insert(row, col);
    stamp_[c] = epoch_;
    values_[c] = value_bits;
    col_count_[col]++;
    occupied_count_++;
  }

  // Clears one indicator — the locator "sets located non-zeros to zero"
  // after extracting them (§III). Aborts if the cell is empty.
  void erase(u32 row, u32 col);

  bool occupied(u32 row, u32 col) const;
  u32 value_bits(u32 row, u32 col) const;

  // A column's indicator line, as presented to the Non-zero Locator.
  std::vector<bool> col_indicators(u32 col) const;

  // A column's population, for skipping empty columns.
  u32 col_count(u32 col) const { return col_count_[col]; }

 private:
  usize cell(u32 row, u32 col) const {
    SMTU_DCHECK(row < section_ && col < section_);
    return static_cast<usize>(row) * section_ + col;
  }
  [[noreturn]] void duplicate_insert(u32 row, u32 col) const;

  u32 section_;
  usize occupied_count_ = 0;
  std::vector<u32> values_;
  // Non-zero indicators as generation stamps: a cell is occupied iff its
  // stamp equals the current epoch, making `icm` O(s) instead of O(s^2) —
  // the hardware's flash clear, without the simulator paying per-cell cost.
  std::vector<u32> stamp_;
  u32 epoch_ = 1;
  std::vector<u32> col_count_;
};

}  // namespace smtu
