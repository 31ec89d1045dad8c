// Host-throughput caching layers: the content-addressed on-disk simulation
// cache (hash keying, need_verified/need_profile miss semantics, merge-on-
// store, concurrent writers), the process-wide program cache, the matrix
// stage cache, and the copy-on-write memory snapshots underneath them. The
// load-bearing property throughout is bit-identical replay: a cached result
// must serialize to exactly the bytes the live simulation would have
// produced.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "formats/coo.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/staging.hpp"
#include "support/json.hpp"
#include "testing.hpp"
#include "vsim/json_export.hpp"
#include "vsim/memory.hpp"
#include "vsim/program_cache.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu {
namespace {

Coo small_matrix() {
  Coo coo(96, 96);
  for (Index i = 0; i < 96; ++i) {
    coo.add(i, (i * 37 + 5) % 96, static_cast<float>(i) + 0.5f);
    coo.add((i * 13) % 96, i, 1.0f);
  }
  coo.canonicalize();
  return coo;
}

std::string stats_json(const vsim::RunStats& stats) {
  std::ostringstream out;
  JsonWriter json(out);
  vsim::write_run_stats_json(json, stats);
  return out.str();
}

using testing::TempDir;

TEST(SimHash, StableAndSensitive) {
  vsim::SimHash a;
  a.update(std::string_view("hello"));
  a.update_u64(42);
  vsim::SimHash b;
  b.update(std::string_view("hello"));
  b.update_u64(42);
  EXPECT_EQ(a.hex(), b.hex());
  EXPECT_EQ(a.hex().size(), 32u);

  vsim::SimHash c;
  c.update(std::string_view("hello"));
  c.update_u64(43);
  EXPECT_NE(a.hex(), c.hex());
}

// SimHash names the entries on disk: a change to what it returns renames
// every cached simulation, so it must be deliberate and update these.
TEST(SimHash, GoldenDigests) {
  EXPECT_EQ(vsim::SimHash().hex(), "72dee428a469f6fd7acdbb98b1344213");
  vsim::SimHash hash;
  hash.update(std::string_view("Sparse Matrix Transpose Unit"));
  hash.update_u64(0x0123456789abcdefull);
  std::vector<u8> bytes(1000);
  for (usize i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<u8>(i * 7 + 3);
  hash.update(bytes);
  EXPECT_EQ(hash.hex(), "54442d320a912afe574d0aeae37908d3");
}

TEST(SimCacheKey, GoldenKey) {
  const std::vector<u8> image = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const std::pair<u32, u64> sreg{5, 0x10000};
  EXPECT_EQ(vsim::sim_cache_key("li x1, 1\nhalt\n", vsim::MachineConfig{}, image, {&sreg, 1}),
            "507051c0f6b77c0623aaa569aa6d470c");
}

std::pair<u64, u64> halves(const vsim::SimHash& hash) {
  const std::string hex = hash.hex();
  return {std::stoull(hex.substr(0, 16), nullptr, 16), std::stoull(hex.substr(16), nullptr, 16)};
}

TEST(SimHash, EveryInputBitReachesBothHalves) {
  std::vector<u8> buffer(1024);
  for (usize i = 0; i < buffer.size(); ++i) buffer[i] = static_cast<u8>(i * 131 + 17);
  vsim::SimHash base_hash;
  base_hash.update(buffer);
  const auto [base_hi, base_lo] = halves(base_hash);
  for (usize bit = 0; bit < buffer.size() * 8; ++bit) {
    buffer[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    vsim::SimHash flipped;
    flipped.update(buffer);
    const auto [hi, lo] = halves(flipped);
    EXPECT_NE(hi, base_hi) << "bit " << bit;
    EXPECT_NE(lo, base_lo) << "bit " << bit;
    buffer[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
  }
}

TEST(SimHash, TrailingZeroBytesHashApart) {
  // The tail word is zero-padded; the mixed-in length keeps these apart.
  std::set<std::string> digests;
  for (usize zeros = 0; zeros < 16; ++zeros) {
    std::vector<u8> bytes = {0xde, 0xad, 0xbe, 0xef, 0x01};
    bytes.resize(bytes.size() + zeros, 0);
    vsim::SimHash hash;
    hash.update(bytes);
    digests.insert(hash.hex());
  }
  EXPECT_EQ(digests.size(), 16u);
}

TEST(SimCacheKey, DependsOnEveryInput) {
  const vsim::MachineConfig config;
  const std::vector<u8> image = {1, 2, 3, 4};
  const std::string base = vsim::sim_cache_key("prog", config, image, {});

  EXPECT_EQ(base, vsim::sim_cache_key("prog", config, image, {}));
  EXPECT_NE(base, vsim::sim_cache_key("prog2", config, image, {}));

  const std::vector<u8> other_image = {1, 2, 3, 5};
  EXPECT_NE(base, vsim::sim_cache_key("prog", config, other_image, {}));

  vsim::MachineConfig other_config;
  other_config.mem_startup += 1;
  EXPECT_NE(base, vsim::sim_cache_key("prog", other_config, image, {}));

  const std::pair<u32, u64> sreg{1, 0x10000};
  EXPECT_NE(base, vsim::sim_cache_key("prog", config, image, {&sreg, 1}));
}

TEST(SimCache, RoundTripIsByteIdentical) {
  TempDir dir("simcache_roundtrip");
  vsim::SimCache cache(dir.str());

  const auto stage = kernels::build_hism_stage(HismMatrix::from_coo(small_matrix(), 64));
  const vsim::MachineConfig config;
  const vsim::RunStats live = kernels::run_hism_transpose(stage, config).stats;

  const std::string key = vsim::sim_cache_key(kernels::hism_transpose_source(), config,
                                              *stage.snapshot, {});
  EXPECT_FALSE(cache.lookup(key, false, false).has_value());
  cache.store(key, {live, /*verified=*/false, /*profile_json=*/""});

  const auto hit = cache.lookup(key, false, false);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(stats_json(hit->stats), stats_json(live));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);

  // A second cache object on the same directory sees the entry (the cache
  // is the directory, not the process).
  vsim::SimCache reopened(dir.str());
  const auto persisted = reopened.lookup(key, false, false);
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(stats_json(persisted->stats), stats_json(live));
}

TEST(SimCache, ProfiledReplayMatchesLiveRender) {
  TempDir dir("simcache_profile");
  vsim::SimCache cache(dir.str());

  const auto stage = kernels::build_crs_stage(Csr::from_coo(small_matrix()));
  const vsim::MachineConfig config;
  vsim::PerfCounters counters;
  const vsim::RunStats live = kernels::run_crs_transpose(stage, config, {}, &counters).stats;

  std::ostringstream rendered;
  JsonWriter json(rendered);
  vsim::write_profile_json(json, counters);

  const std::string key = vsim::sim_cache_key(
      kernels::crs_transpose_source(config.section, {}), config, *stage.snapshot, {});
  cache.store(key, {live, false, rendered.str()});

  const auto hit = cache.lookup(key, false, /*need_profile=*/true);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->profile_json, rendered.str());
  EXPECT_EQ(stats_json(hit->stats), stats_json(live));
}

TEST(SimCache, NeedFlagsTurnInsufficientEntriesIntoMisses) {
  TempDir dir("simcache_needs");
  vsim::SimCache cache(dir.str());

  vsim::RunStats stats;
  stats.cycles = 123;
  cache.store("deadbeefdeadbeefdeadbeefdeadbeef", {stats, /*verified=*/false, ""});

  EXPECT_TRUE(cache.lookup("deadbeefdeadbeefdeadbeefdeadbeef", false, false).has_value());
  EXPECT_FALSE(cache.lookup("deadbeefdeadbeefdeadbeefdeadbeef", true, false).has_value());
  EXPECT_FALSE(cache.lookup("deadbeefdeadbeefdeadbeefdeadbeef", false, true).has_value());
}

TEST(SimCache, EntryUnderAnotherKeysNameIsAMiss) {
  TempDir dir("simcache_key");
  const std::string key = "0123456789abcdef0123456789abcdef";
  const std::string other = "fedcba9876543210fedcba9876543210";
  vsim::RunStats stats;
  stats.cycles = 99;
  vsim::SimCache(dir.str()).store(key, {stats, /*verified=*/true, ""});
  const std::filesystem::path path = std::filesystem::path(dir.str()) / (key + ".json");
  std::filesystem::copy_file(path, std::filesystem::path(dir.str()) / (other + ".json"));

  // A fresh cache object, so no memo answers for the disk.
  vsim::SimCache cache(dir.str());
  EXPECT_TRUE(cache.lookup(key, false, false).has_value());
  EXPECT_FALSE(cache.lookup(other, false, false).has_value());

  // An entry that does not record its key is a miss too.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::string field = "\"key\":\"" + key + "\",";
  const auto at = text.find(field);
  ASSERT_NE(at, std::string::npos) << text;
  text.erase(at, field.size());
  std::ofstream(path, std::ios::trunc) << text;
  EXPECT_FALSE(vsim::SimCache(dir.str()).lookup(key, false, false).has_value());
}

TEST(SimCache, StoreUpgradesButNeverDowngrades) {
  TempDir dir("simcache_merge");
  vsim::SimCache cache(dir.str());
  const std::string key = "0123456789abcdef0123456789abcdef";

  vsim::RunStats stats;
  stats.cycles = 7;
  cache.store(key, {stats, /*verified=*/true, "{\"p\":1}"});
  // An unverified, unprofiled store of the same result must not erase the
  // richer facts already on disk.
  cache.store(key, {stats, /*verified=*/false, ""});

  const auto entry = cache.lookup(key, /*need_verified=*/true, /*need_profile=*/true);
  ASSERT_TRUE(entry.has_value());
  EXPECT_TRUE(entry->verified);
  EXPECT_EQ(entry->profile_json, "{\"p\":1}");
}

TEST(SimCache, ConcurrentWritersOfOneKeyNeverClash) {
  // Two cache objects on one directory stand in for two processes sharing
  // --sim-cache=DIR. Both store the same key from their own thread, round
  // after round; every store must land, and the entry left behind must be
  // whole.
  TempDir dir("simcache_race");
  vsim::SimCache first(dir.str());
  vsim::SimCache second(dir.str());
  const std::string key = "00112233445566778899aabbccddeeff";
  vsim::RunStats stats;
  stats.cycles = 4242;
  stats.instructions = 77;
  constexpr u64 kRounds = 200;
  const auto write_rounds = [&](vsim::SimCache& cache) {
    for (u64 round = 0; round < kRounds; ++round) {
      cache.store(key, {stats, /*verified=*/true, "{\"p\":1}"});
    }
  };
  std::thread other([&] { write_rounds(second); });
  write_rounds(first);
  other.join();

  EXPECT_EQ(first.stats().stores, kRounds);
  EXPECT_EQ(second.stats().stores, kRounds);
  // Only the entry itself remains: no writer's temp file was left behind.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir.str()),
                          std::filesystem::directory_iterator()),
            1);
  const auto entry = vsim::SimCache(dir.str()).lookup(key, /*need_verified=*/true,
                                                      /*need_profile=*/true);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(stats_json(entry->stats), stats_json(stats));
  EXPECT_EQ(entry->profile_json, "{\"p\":1}");
}

TEST(ProgramCache, SharesOnePredecodedProgram) {
  const std::string source = kernels::hism_transpose_source();
  const auto first = vsim::ProgramCache::instance().get(source);
  const auto second = vsim::ProgramCache::instance().get(source);
  EXPECT_EQ(first.get(), second.get());
  // Predecode happened at assembly, once.
  EXPECT_EQ(first->decoded.size(), first->instructions.size());
}

TEST(MatrixStageCache, SharesOneStagePerMatrix) {
  const Coo coo = small_matrix();
  auto& cache = kernels::MatrixStageCache::instance();
  const auto first = cache.hism(coo, 64);
  const auto second = cache.hism(coo, 64);
  EXPECT_EQ(first.get(), second.get());
  // A different section stages a different image.
  EXPECT_NE(first.get(), cache.hism(coo, 32).get());
  EXPECT_EQ(cache.crs(coo).get(), cache.crs(coo).get());
}

TEST(MemoryCow, SnapshotReadsAndPrivatizeOnWrite) {
  auto base = std::make_shared<std::vector<u8>>(4096, u8{0});
  (*base)[100] = 0xAB;
  (*base)[101] = 0xCD;

  vsim::Memory memory;
  memory.attach_base(base);
  EXPECT_EQ(memory.size(), 4096u);
  EXPECT_EQ(memory.read_u8(100), 0xAB);
  EXPECT_EQ(memory.read_u16(100), 0xCDAB);  // little-endian
  EXPECT_EQ(memory.raw().data(), base->data());

  // First write copies; the shared snapshot stays untouched.
  memory.write_u8(100, 0xFF);
  EXPECT_EQ(memory.read_u8(100), 0xFF);
  EXPECT_EQ((*base)[100], 0xAB);
  EXPECT_NE(memory.raw().data(), base->data());
  EXPECT_EQ(memory.read_u8(101), 0xCD);  // copied content preserved
}

}  // namespace
}  // namespace smtu
