#include "stm/sxs_memory.hpp"

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace smtu {

SxsMemory::SxsMemory(u32 section)
    : section_(section),
      values_(static_cast<usize>(section) * section, 0),
      stamp_(static_cast<usize>(section) * section, 0),
      col_count_(section, 0) {
  SMTU_CHECK_MSG(section >= 2 && section <= 256, "section size must be in [2, 256]");
}

void SxsMemory::duplicate_insert(u32 row, u32 col) const {
  SMTU_CHECK_MSG(false, format("duplicate position (%u,%u) in s^2-block", row, col));
  __builtin_unreachable();
}

void SxsMemory::clear() {
  ++epoch_;
  if (epoch_ == 0) {  // stamp wrap-around: do the full clear once per 2^32
    stamp_.assign(stamp_.size(), 0);
    epoch_ = 1;
  }
  col_count_.assign(section_, 0);
  occupied_count_ = 0;
}

void SxsMemory::erase(u32 row, u32 col) {
  const usize c = cell(row, col);
  SMTU_CHECK_MSG(stamp_[c] == epoch_, "erasing an empty s x s memory cell");
  stamp_[c] = epoch_ - 1;
  col_count_[col]--;
  occupied_count_--;
}

bool SxsMemory::occupied(u32 row, u32 col) const { return stamp_[cell(row, col)] == epoch_; }

u32 SxsMemory::value_bits(u32 row, u32 col) const {
  const usize c = cell(row, col);
  SMTU_CHECK_MSG(stamp_[c] == epoch_, "reading an empty s x s memory cell");
  return values_[c];
}

std::vector<bool> SxsMemory::col_indicators(u32 col) const {
  std::vector<bool> bits(section_);
  for (u32 row = 0; row < section_; ++row) bits[row] = occupied(row, col);
  return bits;
}

}  // namespace smtu
