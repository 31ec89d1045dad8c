#include "hism/hism.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/strings.hpp"

namespace smtu {
namespace {

// One entry on its way into the hierarchy: its hierarchical key and its
// value bits. The key holds the entry's block position at every level, 2 *
// log2(s) bits per level, top level most significant, so key order groups
// entries into top-level blocks, then sub-blocks, each in storage order.
struct KeyedEntry {
  u64 key;
  u32 value;
};

// Keys every entry of the canonical form of `coo` for a hierarchy of
// `levels` levels at s = 2^bits. Each level's field is the row digit above
// the column digit, except that `col_first` swaps them at levels >= 1
// (level 0 is always row-major, the paper's element layout).
std::vector<KeyedEntry> keyed_entries(const Coo& coo, u32 bits, u32 levels, bool col_first) {
  Coo storage;
  const Coo& canonical = coo.canonical_view(storage);
  const u64 mask = (u64{1} << bits) - 1;
  std::vector<KeyedEntry> keyed;
  keyed.reserve(canonical.nnz());
  for (const CooEntry& e : canonical.entries()) {
    u64 key = 0;
    for (u32 k = levels - 1; k > 0; --k) {
      const u64 r = (e.row >> (k * bits)) & mask;
      const u64 c = (e.col >> (k * bits)) & mask;
      key = (key << (2 * bits)) | (col_first ? (c << bits) | r : (r << bits) | c);
    }
    key = (key << (2 * bits)) | ((e.row & mask) << bits) | (e.col & mask);
    keyed.push_back({key, std::bit_cast<u32>(e.value)});
  }
  return keyed;
}

// Stable LSD counting sort by key bits [low_bits, key_bits); ties keep their
// input order. Each pass takes a histogram of one digit, turns it into
// bucket offsets with a prefix sum, and scatters. Digits are at most 12 bits
// wide, so one pass's counters stay in L1; a pass whose digit is the same
// for every entry is skipped.
void counting_sort(std::vector<KeyedEntry>& entries, u32 low_bits, u32 key_bits) {
  const usize n = entries.size();
  if (n < 2 || key_bits <= low_bits) return;
  const u32 passes = static_cast<u32>(ceil_div(key_bits - low_bits, 12));
  const u32 width = static_cast<u32>(ceil_div(key_bits - low_bits, passes));
  const u64 mask = (u64{1} << width) - 1;
  std::vector<usize> offset(usize{1} << width);
  std::vector<KeyedEntry> scratch;
  for (u32 shift = low_bits; shift < key_bits; shift += width) {
    std::fill(offset.begin(), offset.end(), 0);
    for (const KeyedEntry& e : entries) ++offset[(e.key >> shift) & mask];
    if (offset[(entries[0].key >> shift) & mask] == n) continue;
    usize sum = 0;
    for (usize& slot : offset) {
      const usize count = slot;
      slot = sum;
      sum += count;
    }
    scratch.resize(n);
    for (const KeyedEntry& e : entries) scratch[offset[(e.key >> shift) & mask]++] = e;
    entries.swap(scratch);
  }
}

// The least levels >= 1 with s^levels >= max(rows, cols), s = 2^bits.
u32 hism_levels(Index rows, Index cols, u32 bits) {
  const Index max_dim = std::max<Index>({rows, cols, 1});
  return std::max<u32>(1, static_cast<u32>(ceil_div(log2_ceil(max_dim), bits)));
}

}  // namespace

void sort_block_row_major(BlockArray& block) {
  const usize n = block.size();
  std::vector<u32> order(n);
  for (usize i = 0; i < n; ++i) order[i] = static_cast<u32>(i);
  std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
    const BlockPos& pa = block.pos[a];
    const BlockPos& pb = block.pos[b];
    return pa.row != pb.row ? pa.row < pb.row : pa.col < pb.col;
  });

  BlockArray sorted;
  sorted.pos.reserve(n);
  sorted.slot.reserve(n);
  if (!block.child_len.empty()) sorted.child_len.reserve(n);
  for (const u32 i : order) {
    sorted.pos.push_back(block.pos[i]);
    sorted.slot.push_back(block.slot[i]);
    if (!block.child_len.empty()) sorted.child_len.push_back(block.child_len[i]);
  }
  block = std::move(sorted);
}

bool HismMatrix::key_fits(Index rows, Index cols, u32 section) {
  const u32 bits = log2_floor(section);
  return 2 * bits * hism_levels(rows, cols, bits) <= 64;
}

HismMatrix HismMatrix::from_coo(const Coo& coo, u32 section, HighLevelOrder high_order) {
  SMTU_CHECK_MSG(valid_section(section), "section size must be a power of two in [2, 256]");

  HismMatrix hism;
  hism.section_ = section;
  hism.rows_ = coo.rows();
  hism.cols_ = coo.cols();

  const u32 bits = log2_floor(section);
  const u32 levels = hism_levels(coo.rows(), coo.cols(), bits);
  const u32 key_bits = 2 * bits * levels;
  SMTU_CHECK_MSG(key_fits(coo.rows(), coo.cols(), section),
                 format("a dimension of %llu at s = %u needs %u levels, a %u-bit HiSM key; "
                        "at most 64 bits are supported",
                        static_cast<unsigned long long>(std::max(coo.rows(), coo.cols())),
                        section, levels, key_bits));
  hism.levels_.resize(levels);

  // Canonical input is row-major, and so is every level-0 block: entries
  // that share all fields above level 0 are already in order, and the sort
  // orders only those fields.
  const bool col_first = high_order == HighLevelOrder::kColMajor;
  std::vector<KeyedEntry> entries = keyed_entries(coo, bits, levels, col_first);
  counting_sort(entries, 2 * bits, key_bits);

  // Recursive bottom-up construction over the sorted entries. An entry's
  // position at level k is key field k; the entries of one level-k block
  // are a run sharing every key bit from field k up.
  struct Builder {
    HismMatrix& hism;
    const std::vector<KeyedEntry>& entries;
    u32 bits;
    bool col_first;

    // Builds the block covering entries [begin, end) at `level`; returns its
    // id within the level's pool.
    u32 build(usize begin, usize end, u32 level) {
      const u64 mask = (u64{1} << bits) - 1;
      BlockArray block;
      if (level == 0) {
        block.pos.reserve(end - begin);
        block.slot.reserve(end - begin);
        for (usize i = begin; i < end; ++i) {
          const u64 key = entries[i].key;
          block.pos.push_back(
              {static_cast<u8>((key >> bits) & mask), static_cast<u8>(key & mask)});
          block.slot.push_back(entries[i].value);
        }
      } else {
        const u32 shift = 2 * bits * level;
        usize i = begin;
        while (i < end) {
          const u64 prefix = entries[i].key >> shift;
          usize j = i + 1;
          while (j < end && (entries[j].key >> shift) == prefix) ++j;
          const u32 child = build(i, j, level - 1);
          const auto first = static_cast<u8>((prefix >> bits) & mask);
          const auto second = static_cast<u8>(prefix & mask);
          block.pos.push_back(col_first ? BlockPos{second, first} : BlockPos{first, second});
          block.slot.push_back(child);
          // Length of the child block-array itself (its entry count), not of
          // the element range it covers — they differ above level 1.
          block.child_len.push_back(static_cast<u32>(hism.levels_[level - 1][child].size()));
          i = j;
        }
      }
      auto& pool = hism.levels_[level];
      pool.push_back(std::move(block));
      return static_cast<u32>(pool.size() - 1);
    }
  };

  Builder builder{hism, entries, bits, col_first};
  hism.root_id_ = builder.build(0, entries.size(), levels - 1);
  return hism;
}

HismMatrix HismMatrix::assemble(u32 section, Index rows, Index cols,
                                std::vector<std::vector<BlockArray>> levels, u32 root_id) {
  HismMatrix hism;
  hism.section_ = section;
  hism.rows_ = rows;
  hism.cols_ = cols;
  hism.levels_ = std::move(levels);
  hism.root_id_ = root_id;
  SMTU_CHECK_MSG(hism.validate(), "assembled HiSM matrix is structurally invalid");
  return hism;
}

Coo HismMatrix::to_coo() const {
  Coo coo(rows_, cols_);
  if (levels_.empty()) return coo;
  const usize n = nnz();
  auto& entries = coo.entries();

  // Calls visit(row, col, slot) for every element, in storage order.
  const auto walk = [this](auto&& visit) {
    const auto descend = [&](auto& self, const BlockArray& block, u32 level, Index row_off,
                             Index col_off) -> void {
      const u64 span = ipow(section_, level);
      for (usize i = 0; i < block.size(); ++i) {
        const Index row = row_off + block.pos[i].row * span;
        const Index col = col_off + block.pos[i].col * span;
        if (level == 0) {
          visit(row, col, block.slot[i]);
        } else {
          self(self, levels_[level - 1][block.slot[i]], level - 1, row, col);
        }
      }
    };
    descend(descend, root(), num_levels() - 1, 0, 0);
  };

  if (counting_order_fits(rows_, n)) {
    // Every block is strictly row- or column-major (validate()), so a walk
    // meets each row's columns in ascending order: one walk counts the
    // entries per row, a second scatters each into its row's run. The
    // count, not nnz(), sizes the result: a hierarchy mutated through
    // level() may reach a block twice.
    std::vector<u32> start(rows_, 0);
    usize visited = 0;
    walk([&](Index row, Index col, u32) {
      SMTU_CHECK_MSG(row < rows_ && col < cols_, "HiSM element outside the matrix");
      ++start[row];
      ++visited;
    });
    std::exclusive_scan(start.begin(), start.end(), start.begin(), u32{0});
    entries.resize(visited);
    walk([&](Index row, Index col, u32 slot) {
      entries[start[row]++] = {row, col, std::bit_cast<float>(slot)};
    });
    std::erase_if(entries, [](const CooEntry& e) { return e.value == 0.0f; });
  } else {
    entries.reserve(n);
    walk([&](Index row, Index col, u32 slot) {
      entries.push_back({row, col, std::bit_cast<float>(slot)});
    });
  }
  // A hierarchy mutated through level() may break the order the scatter
  // relies on; the scan costs O(n), and the sort runs only then.
  coo.canonicalize();
  return coo;
}

usize HismMatrix::nnz() const {
  usize total = 0;
  if (!levels_.empty()) {
    for (const BlockArray& block : levels_[0]) total += block.size();
  }
  return total;
}

const std::vector<BlockArray>& HismMatrix::level(u32 k) const {
  SMTU_CHECK(k < levels_.size());
  return levels_[k];
}

std::vector<BlockArray>& HismMatrix::level(u32 k) {
  SMTU_CHECK(k < levels_.size());
  return levels_[k];
}

bool HismMatrix::validate() const {
  if (levels_.empty()) return false;
  if (section_ < 2 || section_ > kMaxSection) return false;
  if (root_id_ >= levels_.back().size()) return false;

  // The padded dimension s^q must cover the matrix.
  if (ipow(section_, num_levels()) < std::max<Index>({rows_, cols_, 1})) return false;

  std::vector<std::vector<u32>> reference_count(levels_.size());
  for (u32 k = 0; k + 1 < num_levels(); ++k) {
    reference_count[k].assign(levels_[k].size(), 0);
  }

  for (u32 k = 0; k < num_levels(); ++k) {
    for (const BlockArray& block : levels_[k]) {
      if (block.slot.size() != block.pos.size()) return false;
      const bool has_children = k > 0;
      if (has_children && block.child_len.size() != block.pos.size()) return false;
      if (!has_children && !block.child_len.empty()) return false;
      if (block.size() > static_cast<usize>(section_) * section_) return false;
      // Entries must be strictly sorted: row-major always qualifies; levels
      // above 0 may instead be column-major (the paper's free choice).
      bool row_major_ok = true;
      bool col_major_ok = k > 0;
      for (usize i = 1; i < block.size(); ++i) {
        const BlockPos& prev = block.pos[i - 1];
        const BlockPos& cur = block.pos[i];
        if (!(prev.row != cur.row ? prev.row < cur.row : prev.col < cur.col)) {
          row_major_ok = false;
        }
        if (!(prev.col != cur.col ? prev.col < cur.col : prev.row < cur.row)) {
          col_major_ok = false;
        }
      }
      if (!row_major_ok && !col_major_ok) return false;
      for (usize i = 0; i < block.size(); ++i) {
        if (block.pos[i].row >= section_ || block.pos[i].col >= section_) return false;
        if (has_children) {
          const u32 child = block.slot[i];
          if (child >= levels_[k - 1].size()) return false;
          if (block.child_len[i] != levels_[k - 1][child].size()) return false;
          reference_count[k - 1][child]++;
        }
      }
    }
  }

  // Every non-root block must be referenced exactly once (tree shape).
  for (u32 k = 0; k + 1 < num_levels(); ++k) {
    for (const u32 count : reference_count[k]) {
      if (count != 1) return false;
    }
  }
  return true;
}

}  // namespace smtu
