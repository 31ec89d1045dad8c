#include "hism_reference.hpp"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace smtu {
namespace {

// Base-s digit k of a coordinate: the position of the element at hierarchy
// level k (§III of the paper: i = i_0 + i_1 s + ... + i_q s^q).
constexpr u32 digit(Index coord, u32 level, u32 section) {
  return static_cast<u32>((coord / ipow(section, level)) % section);
}

// The paper's level count q = ceil(log_s(max_dim)), by repeated
// multiplication.
u32 level_count(Index max_dim, u32 section) {
  u32 levels = 0;
  for (u64 reach = 1; reach < max_dim; reach *= section) ++levels;
  return levels;
}

// Hierarchical sort key: most-significant digits first, so sorting groups
// entries into top-level blocks, then sub-blocks. The digit order at levels
// >= 1 realizes the requested high-level storage order. Level 0 is always
// row-major.
u64 hierarchical_key(Index row, Index col, u32 levels, u32 section,
                     HighLevelOrder high_order) {
  const bool col_first = high_order == HighLevelOrder::kColMajor;
  u64 key = 0;
  for (u32 k = levels; k-- > 1;) {
    const u32 r = digit(row, k, section);
    const u32 c = digit(col, k, section);
    key = (key * section + (col_first ? c : r)) * section + (col_first ? r : c);
  }
  return (key * section + digit(row, 0, section)) * section + digit(col, 0, section);
}

// Recursive bottom-up construction over the key-sorted entries.
struct Builder {
  std::vector<std::vector<BlockArray>>& levels;
  const std::vector<CooEntry>& entries;
  u32 section;

  // Builds the block covering entries [begin, end) at `level`; returns its
  // id within the level's pool.
  u32 build(usize begin, usize end, u32 level) {
    BlockArray block;
    if (level == 0) {
      for (usize i = begin; i < end; ++i) {
        block.pos.push_back({static_cast<u8>(digit(entries[i].row, 0, section)),
                             static_cast<u8>(digit(entries[i].col, 0, section))});
        block.slot.push_back(std::bit_cast<u32>(entries[i].value));
      }
    } else {
      usize i = begin;
      while (i < end) {
        const u32 r = digit(entries[i].row, level, section);
        const u32 c = digit(entries[i].col, level, section);
        usize j = i;
        while (j < end && digit(entries[j].row, level, section) == r &&
               digit(entries[j].col, level, section) == c) {
          ++j;
        }
        const u32 child = build(i, j, level - 1);
        block.pos.push_back({static_cast<u8>(r), static_cast<u8>(c)});
        block.slot.push_back(child);
        // Length of the child block-array itself, not of the element range
        // it covers — they differ above level 1.
        block.child_len.push_back(static_cast<u32>(levels[level - 1][child].size()));
        i = j;
      }
    }
    auto& pool = levels[level];
    pool.push_back(std::move(block));
    return static_cast<u32>(pool.size() - 1);
  }
};

}  // namespace

HismMatrix reference_hism_from_coo(const Coo& coo, u32 section, HighLevelOrder high_order) {
  SMTU_CHECK_MSG(section >= 2 && section <= HismMatrix::kMaxSection,
                 "section size must be in [2, 256]");
  Coo canonical = coo;
  canonical.canonicalize();

  const Index max_dim = std::max<Index>({canonical.rows(), canonical.cols(), 1});
  const u32 num_levels = std::max<u32>(1, level_count(max_dim, section));

  std::vector<std::pair<u64, CooEntry>> keyed;
  for (const CooEntry& e : canonical.entries()) {
    keyed.emplace_back(hierarchical_key(e.row, e.col, num_levels, section, high_order), e);
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<CooEntry> entries;
  for (const auto& [key, entry] : keyed) entries.push_back(entry);

  std::vector<std::vector<BlockArray>> levels(num_levels);
  Builder builder{levels, entries, section};
  const u32 root_id = builder.build(0, entries.size(), num_levels - 1);
  return HismMatrix::assemble(section, canonical.rows(), canonical.cols(), std::move(levels),
                              root_id);
}

}  // namespace smtu
