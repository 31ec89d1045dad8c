#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "vsim/memory.hpp"

namespace smtu::vsim {
namespace {

TEST(Memory, ReadBackWrites) {
  Memory mem;
  mem.write_u32(0x100, 0xdeadbeef);
  EXPECT_EQ(mem.read_u32(0x100), 0xdeadbeefu);
  mem.write_u16(0x200, 0x1234);
  EXPECT_EQ(mem.read_u16(0x200), 0x1234u);
  mem.write_u8(0x300, 0xab);
  EXPECT_EQ(mem.read_u8(0x300), 0xabu);
}

TEST(Memory, LittleEndianLayout) {
  Memory mem;
  mem.write_u32(0, 0x04030201);
  EXPECT_EQ(mem.read_u8(0), 0x01u);
  EXPECT_EQ(mem.read_u8(1), 0x02u);
  EXPECT_EQ(mem.read_u8(2), 0x03u);
  EXPECT_EQ(mem.read_u8(3), 0x04u);
  EXPECT_EQ(mem.read_u16(0), 0x0201u);
}

TEST(Memory, FloatRoundTrip) {
  Memory mem;
  mem.write_f32(16, 3.25f);
  EXPECT_FLOAT_EQ(mem.read_f32(16), 3.25f);
}

TEST(Memory, GrowsOnDemandZeroFilled) {
  Memory mem;
  mem.write_u8(10000, 1);
  EXPECT_GE(mem.size(), 10001u);
  EXPECT_EQ(mem.read_u32(9990), 0u);
}

TEST(Memory, WriteBlockAndRaw) {
  Memory mem;
  const std::vector<u8> data = {1, 2, 3, 4, 5};
  mem.write_block(64, data);
  EXPECT_EQ(mem.read_u8(64), 1u);
  EXPECT_EQ(mem.read_u8(68), 5u);
  EXPECT_EQ(mem.raw()[66], 3u);
}

TEST(Memory, SnapshotIsSizedLikeWrittenMemory) {
  // A staged image reaches a machine as a snapshot. It must hold exactly
  // what writing the image in place leaves, size included, so that reads
  // past the image behave the same on both.
  struct Image {
    Addr base;
    usize length;
    u64 size;  // the 4096-doubling growth rule's answer for base + length
  };
  for (const Image& image : {Image{0, 0, 0}, Image{0, 1, 4096}, Image{4000, 96, 4096},
                             Image{4000, 97, 8192}, Image{0x10000, 5, 0x20000}}) {
    const u64 end = image.base + image.length;
    std::vector<u8> bytes(image.length);
    for (usize i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<u8>(i + 1);

    Memory written;
    written.write_block(image.base, bytes);
    const auto snapshot = Memory::snapshot_of(image.base, bytes);
    EXPECT_EQ(snapshot->size(), written.size()) << "image ending at " << end;
    EXPECT_EQ(snapshot->size(), image.size) << "image ending at " << end;

    Memory attached;
    attached.attach_base(snapshot);
    EXPECT_TRUE(std::ranges::equal(attached.raw(), written.raw())) << "image ending at " << end;
  }
}

TEST(MemoryDeathTest, ReadBeyondAllocationAborts) {
  Memory mem;
  mem.write_u8(8, 1);
  EXPECT_DEATH(mem.read_u32(1 << 20), "beyond allocated");
}

TEST(MemoryDeathTest, ExceedingLimitAborts) {
  Memory mem(1024);
  EXPECT_DEATH(mem.write_u8(2048, 1), "limit");
}

}  // namespace
}  // namespace smtu::vsim
