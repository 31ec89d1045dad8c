#include "hism/image.hpp"

#include <bit>
#include <cstring>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace smtu {
namespace {

// Block positions are stored as (row byte, col byte) pairs and slots and
// lengths as little-endian words, which is how this host lays out BlockPos
// and u32: whole arrays move with one memcpy each.
static_assert(sizeof(BlockPos) == 2 && std::endian::native == std::endian::little);

// The address of every block array of `hism`'s image at `base`, by level and
// pool index, and the image's end. Level 0 comes first, so children precede
// their parents.
std::vector<std::vector<Addr>> block_addresses(const HismMatrix& hism, Addr base, Addr& end) {
  std::vector<std::vector<Addr>> addr_of(hism.num_levels());
  Addr cursor = base;
  for (u32 k = 0; k < hism.num_levels(); ++k) {
    addr_of[k].reserve(hism.level(k).size());
    for (const BlockArray& block : hism.level(k)) {
      addr_of[k].push_back(cursor);
      cursor += block_array_image_bytes(block.size(), /*has_lengths=*/k > 0);
    }
  }
  end = cursor;
  return addr_of;
}

}  // namespace

u64 block_array_image_bytes(usize entries, bool has_lengths) {
  const u64 n = entries;
  return round_up(2 * n, 4) + 4 * n + (has_lengths ? 4 * n : 0);
}

HismImage hism_image_layout(const HismMatrix& hism, Addr base) {
  SMTU_CHECK_MSG(base % 4 == 0, "HiSM image base must be 4-byte aligned");
  SMTU_CHECK_MSG(hism.validate(), "cannot serialize an invalid HiSM matrix");

  HismImage image;
  image.base = base;
  image.levels = hism.num_levels();
  image.section = hism.section();
  image.rows = hism.rows();
  image.cols = hism.cols();
  const std::vector<std::vector<Addr>> addr_of = block_addresses(hism, base, image.end);
  image.root_addr = addr_of[image.levels - 1][hism.root_id()];
  image.root_len = static_cast<u32>(hism.root().size());
  SMTU_CHECK_MSG(image.end <= 0xffffffffULL, "HiSM image exceeds 32-bit pointer range");
  return image;
}

void write_hism_image(const HismMatrix& hism, const HismImage& image, std::span<u8> memory) {
  SMTU_CHECK(image.end <= memory.size());
  Addr end = 0;
  const std::vector<std::vector<Addr>> addr_of = block_addresses(hism, image.base, end);
  SMTU_CHECK_MSG(end == image.end, "HiSM image layout does not match its matrix");
  for (u32 k = 0; k < image.levels; ++k) {
    const auto& pool = hism.level(k);
    for (usize b = 0; b < pool.size(); ++b) {
      const BlockArray& block = pool[b];
      const usize n = block.size();
      if (n == 0) continue;
      u8* const at = memory.data() + addr_of[k][b];
      u8* const slots = at + round_up(2 * n, 4);
      std::memcpy(at, block.pos.data(), 2 * n);
      if (k == 0) {
        std::memcpy(slots, block.slot.data(), 4 * n);
        continue;
      }
      for (usize i = 0; i < n; ++i) {
        const auto child = static_cast<u32>(addr_of[k - 1][block.slot[i]]);
        std::memcpy(slots + 4 * i, &child, 4);
      }
      std::memcpy(slots + 4 * n, block.child_len.data(), 4 * n);
    }
  }
}

HismMatrix decode_hism_image(std::span<const u8> memory, Addr memory_base, Addr root_addr,
                             u32 root_len, u32 levels, u32 section, Index rows, Index cols) {
  SMTU_CHECK(levels >= 1);
  SMTU_CHECK(section >= 2 && section <= HismMatrix::kMaxSection);

  std::vector<std::vector<BlockArray>> pools(levels);

  struct Decoder {
    std::vector<std::vector<BlockArray>>& pools;
    std::span<const u8> memory;
    Addr memory_base;

    u32 decode(Addr addr, u32 len, u32 level) {
      SMTU_CHECK_MSG(addr >= memory_base, "block address before image base");
      const u64 n = len;
      SMTU_CHECK_MSG(addr - memory_base + block_array_image_bytes(n, level > 0) <= memory.size(),
                     "HiSM block array out of bounds");
      const u8* const at = memory.data() + (addr - memory_base);
      const u8* const slots = at + round_up(2 * n, 4);

      BlockArray block;
      block.pos.resize(n);
      block.slot.resize(n);
      if (n != 0) {
        std::memcpy(block.pos.data(), at, 2 * n);
        std::memcpy(block.slot.data(), slots, 4 * n);
      }
      if (level > 0) {
        block.child_len.resize(n);
        if (n != 0) std::memcpy(block.child_len.data(), slots + 4 * n, 4 * n);
        // Slots hold child addresses until each child is decoded.
        for (u64 i = 0; i < n; ++i) {
          block.slot[i] = decode(block.slot[i], block.child_len[i], level - 1);
        }
      }
      auto& pool = pools[level];
      pool.push_back(std::move(block));
      return static_cast<u32>(pool.size() - 1);
    }
  };

  Decoder decoder{pools, memory, memory_base};
  const u32 root_id = decoder.decode(root_addr, root_len, levels - 1);
  return HismMatrix::assemble(section, rows, cols, std::move(pools), root_id);
}

}  // namespace smtu
