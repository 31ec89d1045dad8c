// Hierarchical Sparse Matrix (HiSM) storage format, after Stathis et al.
//
// An M x N matrix is padded to s^q x s^q and recursively partitioned into
// s x s blocks ("s^2-blocks"). A non-empty block is stored as a block-array:
// for each stored element, an (row, col) position within the block (8 bits
// each, since s <= 256) plus a 32-bit payload. At level 0 the payload is the
// element value; at level k >= 1 it is a pointer to a level k-1 block-array,
// accompanied by that array's length (the "lengths vector" of the paper).
//
// q = max(ceil(log_s M), ceil(log_s N)) levels cover the whole matrix; the
// matrix is referenced by its top block-array and that array's length.
#pragma once

#include <vector>

#include "formats/coo.hpp"
#include "support/bits.hpp"
#include "support/types.hpp"

namespace smtu {

// Position of a stored element inside its s x s block. s <= 256 keeps these
// in one byte each — the format's storage advantage over CRS's 32-bit column
// indices (§II of the paper).
struct BlockPos {
  u8 row = 0;
  u8 col = 0;

  friend bool operator==(const BlockPos&, const BlockPos&) = default;
};

// One s^2-blockarray. Parallel arrays: pos[i] locates entry i in the block;
// slot[i] holds the value bits (level 0) or the child block-array id
// (level >= 1); child_len[i] (level >= 1 only) mirrors the format's lengths
// vector and must equal the size of the referenced child array.
struct BlockArray {
  std::vector<BlockPos> pos;
  std::vector<u32> slot;
  std::vector<u32> child_len;

  usize size() const { return pos.size(); }
};

// Storage order of entries within higher-level block-arrays. §II: level-0
// arrays are row-wise; for higher levels the paper's Fig. 2 stores level 1
// column-wise and notes the choice "can be chosen freely and is not
// restricted by the format". Both orders are supported; everything
// downstream (kernels, images, access) is order-agnostic.
enum class HighLevelOrder : u8 { kRowMajor, kColMajor };

class HismMatrix {
 public:
  // Maximum section size representable with 8-bit block positions.
  static constexpr u32 kMaxSection = 256;

  // The section sizes from_coo accepts: powers of two in [2, kMaxSection],
  // so every block coordinate is a shift and a mask of the element's.
  static constexpr bool valid_section(u64 section) {
    return section >= 2 && section <= kMaxSection && is_pow2(section);
  }

  HismMatrix() = default;

  // Whether from_coo can build a rows x cols matrix at a valid_section: its
  // hierarchical key, 2 * log2(s) bits per level, must fit in 64 bits (no
  // dimension beyond s^(32 / log2(s))).
  static bool key_fits(Index rows, Index cols, u32 section);

  // Builds the hierarchy from a COO matrix for vector section size `section`
  // (valid_section). Level-0 block-arrays are ordered row-wise (the paper's
  // layout); `high_order` selects the ordering of levels >= 1. Aborts unless
  // key_fits.
  static HismMatrix from_coo(const Coo& coo, u32 section,
                             HighLevelOrder high_order = HighLevelOrder::kRowMajor);

  // Assembles a matrix from pre-built block-array pools (used by the memory
  // image decoder); aborts if the result does not validate().
  static HismMatrix assemble(u32 section, Index rows, Index cols,
                             std::vector<std::vector<BlockArray>> levels, u32 root_id);

  Coo to_coo() const;

  u32 section() const { return section_; }
  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  u32 num_levels() const { return static_cast<u32>(levels_.size()); }
  usize nnz() const;

  // Block-array pools. level 0 holds element arrays; the top level holds
  // exactly one array (the root).
  const std::vector<BlockArray>& level(u32 k) const;
  std::vector<BlockArray>& level(u32 k);

  u32 root_id() const { return root_id_; }
  const BlockArray& root() const { return levels_.back()[root_id_]; }

  // Structural invariants: position bounds, pointer validity, length-vector
  // consistency, sorted entries (row- or column-major per level), and that
  // every non-root array is referenced exactly once.
  bool validate() const;

  // Swaps the logical dimensions; used by the transpose routines.
  void swap_dims() { std::swap(rows_, cols_); }

 private:
  u32 section_ = 0;
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<std::vector<BlockArray>> levels_;
  u32 root_id_ = 0;
};

// Sorts a block-array's entries row-major by position (the canonical storage
// order); parallel arrays follow their entry.
void sort_block_row_major(BlockArray& block);

}  // namespace smtu
