// The digit-based HiSM builder, kept as an independent oracle for
// HismMatrix::from_coo.
//
// It derives every block coordinate with base-s divisions, sorts (key,
// entry) pairs with a comparator and splits blocks by comparing digits. The
// library's builder instead computes each key once with shifts, orders the
// entries with a counting sort and reads positions and block boundaries
// from the key. Both must produce the same pools, root id and image bytes;
// tests/test_hism_builder.cpp enforces that.
#pragma once

#include "hism/hism.hpp"

namespace smtu {

// Builds the hierarchy of `coo` for any section size in [2, 256]. Aborts if
// the result does not validate().
HismMatrix reference_hism_from_coo(const Coo& coo, u32 section,
                                   HighLevelOrder high_order = HighLevelOrder::kRowMajor);

}  // namespace smtu
