#include <gtest/gtest.h>

#include "oracles/locator.hpp"
#include "support/rng.hpp"

namespace smtu {
namespace {

std::vector<bool> bits_from_string(const std::string& pattern) {
  std::vector<bool> bits;
  bits.reserve(pattern.size());
  for (const char c : pattern) bits.push_back(c == '1');
  return bits;
}

TEST(Locator, FindsFirstOnes) {
  const auto result = locate_first_ones(bits_from_string("01011010"), 3);
  ASSERT_EQ(result.positions, (std::vector<u32>{1, 3, 4}));
  EXPECT_FALSE(result.overflow);
}

TEST(Locator, OverflowWhenFewerOnesThanBandwidth) {
  const auto result = locate_first_ones(bits_from_string("00010001"), 4);
  ASSERT_EQ(result.positions, (std::vector<u32>{3, 7}));
  EXPECT_TRUE(result.overflow);
}

TEST(Locator, EmptyLineOverflowsImmediately) {
  const auto result = locate_first_ones(bits_from_string("00000000"), 2);
  EXPECT_TRUE(result.positions.empty());
  EXPECT_TRUE(result.overflow);
}

TEST(Locator, BandwidthOneTakesFirstBit) {
  const auto result = locate_first_ones(bits_from_string("11111111"), 1);
  ASSERT_EQ(result.positions, (std::vector<u32>{0}));
  EXPECT_FALSE(result.overflow);
}

TEST(Locator, FullLineNoOverflow) {
  const auto result = locate_first_ones(bits_from_string("1111"), 4);
  ASSERT_EQ(result.positions, (std::vector<u32>{0, 1, 2, 3}));
  EXPECT_FALSE(result.overflow);
}

TEST(LocatorCircuit, ExhaustiveEquivalenceWidth8) {
  // Every 8-bit indicator pattern, every bandwidth 1..8: the structural
  // circuit model must match the behavioral scan bit-exactly.
  for (u32 pattern = 0; pattern < 256; ++pattern) {
    std::vector<bool> bits(8);
    for (u32 i = 0; i < 8; ++i) bits[i] = (pattern >> i) & 1;
    for (u32 bandwidth = 1; bandwidth <= 8; ++bandwidth) {
      const auto behavioral = locate_first_ones(bits, bandwidth);
      const auto circuit = locate_first_ones_circuit(bits, bandwidth);
      ASSERT_EQ(behavioral.positions, circuit.positions)
          << "pattern=" << pattern << " B=" << bandwidth;
      ASSERT_EQ(behavioral.overflow, circuit.overflow)
          << "pattern=" << pattern << " B=" << bandwidth;
    }
  }
}

TEST(LocatorCircuit, RandomizedEquivalenceWidth64) {
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<bool> bits(64);
    for (usize i = 0; i < 64; ++i) bits[i] = rng.chance(0.3);
    const u32 bandwidth = static_cast<u32>(rng.range(1, 8));
    const auto behavioral = locate_first_ones(bits, bandwidth);
    const auto circuit = locate_first_ones_circuit(bits, bandwidth);
    ASSERT_EQ(behavioral.positions, circuit.positions);
    ASSERT_EQ(behavioral.overflow, circuit.overflow);
  }
}

}  // namespace
}  // namespace smtu
