#include "support/rng.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <unordered_set>

namespace smtu {
namespace {

// Floyd's draws are marked in a bitmap on the stack up to this population.
constexpr u64 kBitmapPopulation = u64{1} << 16;

}  // namespace

std::vector<u64> Rng::sample_without_replacement(u64 population, u64 count) {
  SMTU_CHECK_MSG(count <= population, "cannot sample more than the population");
  std::vector<u64> chosen;
  chosen.reserve(count);
  if (count == 0) return chosen;

  // Dense case: permute the full population prefix.
  if (count * 4 >= population) {
    std::vector<u64> all(population);
    for (u64 i = 0; i < population; ++i) all[i] = i;
    shuffle(all);
    chosen.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(count));
    std::sort(chosen.begin(), chosen.end());
    return chosen;
  }

  // Floyd's algorithm: O(count) expected draws. Step j adds its draw, or j
  // itself when the draw is already taken.
  if (population <= kBitmapPopulation) {
    // Reading the bitmap word by word emits the sample already sorted. Only
    // the words the population covers are cleared and read: the suite
    // samples 1024-cell blocks thousands of times.
    std::array<u64, kBitmapPopulation / 64> taken;
    const usize words = static_cast<usize>((population + 63) / 64);
    std::fill_n(taken.begin(), words, u64{0});
    for (u64 j = population - count; j < population; ++j) {
      u64 candidate = below(j + 1);
      if ((taken[candidate / 64] >> (candidate % 64) & 1) != 0) candidate = j;
      taken[candidate / 64] |= u64{1} << (candidate % 64);
    }
    for (usize word = 0; word < words; ++word) {
      for (u64 bits = taken[word]; bits != 0; bits &= bits - 1) {
        chosen.push_back(word * 64 + static_cast<u64>(std::countr_zero(bits)));
      }
    }
    return chosen;
  }
  std::unordered_set<u64> seen;
  seen.reserve(count * 2);
  for (u64 j = population - count; j < population; ++j) {
    const u64 candidate = below(j + 1);
    if (!seen.insert(candidate).second) seen.insert(j);
  }
  chosen.assign(seen.begin(), seen.end());
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

}  // namespace smtu
