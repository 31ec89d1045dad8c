#include "locator.hpp"

namespace smtu {

LocatorResult locate_first_ones(const std::vector<bool>& bits, u32 bandwidth) {
  LocatorResult result;
  result.positions.reserve(bandwidth);
  for (u32 i = 0; i < bits.size() && result.positions.size() < bandwidth; ++i) {
    if (bits[i]) result.positions.push_back(i);
  }
  result.overflow = result.positions.size() < bandwidth;
  return result;
}

LocatorResult locate_first_ones_circuit(const std::vector<bool>& bits, u32 bandwidth) {
  const u32 width = static_cast<u32>(bits.size());

  // Stage 1: inclusive prefix popcount, computed as a Kogge-Stone style
  // log-depth tree — the function the cascaded "0"-counters of Fig. 4
  // realize (counting zeros before a cell is equivalent to counting ones).
  std::vector<u32> prefix(width);
  for (u32 i = 0; i < width; ++i) prefix[i] = bits[i] ? 1u : 0u;
  for (u32 stride = 1; stride < width; stride *= 2) {
    // Evaluate right-to-left so each pass reads pre-pass values, as the
    // hardware's parallel registers would.
    for (u32 i = width; i-- > stride;) {
      prefix[i] += prefix[i - stride];
    }
  }

  // Stage 2: output j selects the cell whose prefix count equals j+1 and
  // whose own bit is set (the one-hot match lines of the figure). Overflow
  // for output j fires when no cell matches, i.e. total ones <= j.
  LocatorResult result;
  result.positions.reserve(bandwidth);
  const u32 total = width == 0 ? 0 : prefix[width - 1];
  for (u32 j = 0; j < bandwidth; ++j) {
    if (total <= j) {
      result.overflow = true;
      break;
    }
    for (u32 i = 0; i < width; ++i) {
      if (bits[i] && prefix[i] == j + 1) {
        result.positions.push_back(i);
        break;
      }
    }
  }
  return result;
}

}  // namespace smtu
