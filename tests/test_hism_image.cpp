#include <gtest/gtest.h>

#include "hism/image.hpp"
#include "hism/transpose.hpp"
#include "testing.hpp"

namespace smtu {
namespace {

using testing::coo_equal;
using testing::random_coo;
using testing::written_hism_image;
using testing::WrittenHismImage;

HismMatrix decode_back(const WrittenHismImage& written) {
  const HismImage& image = written.image;
  return decode_hism_image(written.memory, 0, image.root_addr, image.root_len, image.levels,
                           image.section, image.rows, image.cols);
}

TEST(HismImage, BlockArrayImageBytes) {
  // n entries: align4(2n) + 4n, plus 4n for the lengths vector.
  EXPECT_EQ(block_array_image_bytes(0, false), 0u);
  EXPECT_EQ(block_array_image_bytes(1, false), 8u);    // 4 + 4
  EXPECT_EQ(block_array_image_bytes(2, false), 12u);   // 4 + 8
  EXPECT_EQ(block_array_image_bytes(3, false), 20u);   // 8 + 12
  EXPECT_EQ(block_array_image_bytes(3, true), 32u);    // + 12 lengths
}

TEST(HismImage, RoundTripSingleLevel) {
  Rng rng(1);
  const Coo coo = random_coo(8, 8, 20, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  const WrittenHismImage written = written_hism_image(hism, 0x1000);
  EXPECT_EQ(written.image.root_addr, 0x1000u);
  EXPECT_TRUE(coo_equal(decode_back(written).to_coo(), coo));
}

TEST(HismImage, RoundTripMultiLevel) {
  Rng rng(2);
  const Coo coo = random_coo(300, 200, 900, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  ASSERT_GE(hism.num_levels(), 3u);
  EXPECT_TRUE(coo_equal(decode_back(written_hism_image(hism, 0x4000)).to_coo(), coo));
}

TEST(HismImage, RootIsLastRegion) {
  Rng rng(3);
  const HismMatrix hism = HismMatrix::from_coo(random_coo(100, 100, 200, rng), 16);
  const HismImage image = hism_image_layout(hism, 0);
  // Level pools are laid out bottom-up, so the root (top level) is last.
  const u64 root_size = block_array_image_bytes(image.root_len, image.levels > 1);
  EXPECT_EQ(image.root_addr + root_size, image.end);
}

TEST(HismImage, ImageSizeMatchesStats) {
  Rng rng(4);
  const HismMatrix hism = HismMatrix::from_coo(random_coo(64, 64, 150, rng), 8);
  const HismImage image = hism_image_layout(hism, 0);
  u64 expected = 0;
  for (u32 k = 0; k < hism.num_levels(); ++k) {
    for (const BlockArray& block : hism.level(k)) {
      expected += block_array_image_bytes(block.size(), k > 0);
    }
  }
  EXPECT_EQ(image.end - image.base, expected);
}

TEST(HismImage, LengthsVectorIsSerialized) {
  Rng rng(5);
  const Coo coo = random_coo(60, 60, 100, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  ASSERT_EQ(hism.num_levels(), 2u);
  const HismMatrix decoded = decode_back(written_hism_image(hism, 0x100));
  const BlockArray& root = decoded.root();
  for (usize i = 0; i < root.size(); ++i) {
    EXPECT_EQ(root.child_len[i], decoded.level(0)[root.slot[i]].size());
  }
}

TEST(HismImage, TransposedImageDecodesTransposed) {
  // Serialize, transpose in the object domain, re-serialize at the same
  // base: the decode of the second image must be the transpose.
  Rng rng(6);
  const Coo coo = random_coo(90, 40, 300, rng);
  const HismMatrix hism = HismMatrix::from_coo(coo, 8);
  const HismMatrix t = transposed(hism);
  EXPECT_TRUE(coo_equal(decode_back(written_hism_image(t, 0x2000)).to_coo(), coo.transposed()));
}

TEST(HismImage, EmptyMatrix) {
  const HismMatrix hism = HismMatrix::from_coo(Coo(30, 30), 8);
  const WrittenHismImage written = written_hism_image(hism, 0x40);
  EXPECT_EQ(written.image.root_len, 0u);
  EXPECT_TRUE(coo_equal(decode_back(written).to_coo(), Coo(30, 30)));
}

TEST(HismImageDeathTest, UnalignedBaseAborts) {
  const HismMatrix hism = HismMatrix::from_coo(Coo(8, 8), 8);
  EXPECT_DEATH(hism_image_layout(hism, 0x1002), "aligned");
}

}  // namespace
}  // namespace smtu
