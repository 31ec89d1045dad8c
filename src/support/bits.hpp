// Small integer/bit helpers shared across the simulator and formats.
#pragma once

#include <bit>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace smtu {

// Ceiling division for non-negative integers.
constexpr u64 ceil_div(u64 numerator, u64 denominator) {
  return denominator == 0 ? 0 : (numerator + denominator - 1) / denominator;
}

// Rounds `value` up to the next multiple of `multiple` (multiple > 0).
constexpr u64 round_up(u64 value, u64 multiple) {
  return ceil_div(value, multiple) * multiple;
}

constexpr bool is_pow2(u64 value) { return value != 0 && (value & (value - 1)) == 0; }

// floor(log2(value)) for value >= 1.
constexpr u32 log2_floor(u64 value) {
  return static_cast<u32>(63 - std::countl_zero(value | 1));
}

// ceil(log2(value)) for value >= 1.
constexpr u32 log2_ceil(u64 value) {
  return value <= 1 ? 0 : log2_floor(value - 1) + 1;
}

// base^exp with overflow check (used for block spans, small exponents).
constexpr u64 ipow(u64 base, u32 exp) {
  u64 result = 1;
  for (u32 i = 0; i < exp; ++i) {
    SMTU_DCHECK(result <= ~u64{0} / (base == 0 ? 1 : base));
    result *= base;
  }
  return result;
}

}  // namespace smtu
