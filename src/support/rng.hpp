// Deterministic pseudo-random number generation for workload synthesis.
//
// The suite generators must produce the same matrices on every platform and
// run, so we implement xoshiro256** (public-domain algorithm by Blackman &
// Vigna) rather than relying on implementation-defined std distributions.
#pragma once

#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace smtu {

// splitmix64: used to expand a single seed into xoshiro state.
constexpr u64 splitmix64(u64& state) {
  state += 0x9e3779b97f4a7c15ULL;
  u64 z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(u64 seed = 0x5eed5eed5eedULL) { reseed(seed); }

  void reseed(u64 seed) {
    u64 sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  // Raw 64 uniform bits.
  u64 next_u64() {
    const u64 result = rotl(state_[1] * 5, 7) * 9;
    const u64 t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound) using Lemire's multiply-shift rejection.
  u64 below(u64 bound) {
    SMTU_DCHECK(bound > 0);
    // Rejection loop terminates quickly; bias-free.
    const u64 threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
    while (true) {
      const u64 raw = next_u64();
      if (raw >= threshold) return raw % bound;
    }
  }

  // Uniform integer in [lo, hi] inclusive.
  i64 range(i64 lo, i64 hi) {
    SMTU_DCHECK(lo <= hi);
    return lo + static_cast<i64>(below(static_cast<u64>(hi - lo) + 1));
  }

  // Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  bool chance(double probability) { return uniform() < probability; }

  // Samples `count` distinct values from [0, population) in increasing order.
  // Uses Floyd's algorithm for small count (its draws marked in a bitmap up
  // to a population of 2^16, in a hash set beyond), a shuffle otherwise.
  std::vector<u64> sample_without_replacement(u64 population, u64 count);

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (usize i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[below(i)]);
    }
  }

 private:
  static constexpr u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

  u64 state_[4] = {};
};

}  // namespace smtu
