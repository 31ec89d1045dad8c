// The Non-zero Locator of the STM (Fig. 4 of the paper).
//
// The circuit extracts from a string of non-zero indicator bits the positions
// of the first B ones. When fewer than B ones remain, the corresponding
// "0"-counters overflow, signalling the control logic to fetch the next line
// from the s x s memory. We provide a behavioral model (simple scan) and a
// structural model that mirrors the cascaded zero-counter circuit;
// test_stm_locator proves them equivalent, and the per-cycle
// micro-simulation (oracles/microsim.cpp) drives the behavioral one. The
// library's schedule engine (stm/unit.cpp) never calls the locator, so
// like the other oracles it is built into its tests only.
#pragma once

#include <vector>

#include "support/types.hpp"

namespace smtu {

struct LocatorResult {
  // Positions of the located ones, at most `bandwidth` of them, ascending.
  std::vector<u32> positions;
  // True when fewer than `bandwidth` ones were present (a "0"-counter
  // overflowed); the control logic then advances to the next line.
  bool overflow = false;
};

// Behavioral model: scan `bits` (LSB-first significance: index 0 is the
// first cell of the line) and report the first `bandwidth` set positions.
LocatorResult locate_first_ones(const std::vector<bool>& bits, u32 bandwidth);

// Structural model: a log-depth prefix population count (the adder tree the
// "0"-counters form) followed by per-output selection. Produces identical
// results to the behavioral model.
LocatorResult locate_first_ones_circuit(const std::vector<bool>& bits, u32 bandwidth);

}  // namespace smtu
