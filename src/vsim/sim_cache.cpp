#include "vsim/sim_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "vsim/json_export.hpp"

namespace smtu::vsim {
namespace {

// Each lane has its own seed, odd multipliers and rotation, so the two
// 64-bit halves are independent hashes of the same words.
struct Lane {
  u64 seed;
  u64 word_multiplier;
  u64 lane_multiplier;
  int rotation;
};
constexpr Lane kLo{0x243f6a8885a308d3ull, 0xc2b2ae3d27d4eb4full, 0x9e3779b185ebca87ull, 31};
constexpr Lane kHi{0x13198a2e03707344ull, 0x85ebca77c2b2ae63ull, 0x165667b19e3779f9ull, 27};

// One 8-byte step. For a fixed word it is a bijection of the lane, and for
// a fixed lane a bijection of the word, so inputs that differ in one word
// never share a lane state. The rotate carries the high bits the multiplies
// produce back to the bottom for the next step.
constexpr u64 step(u64 lane, u64 word, const Lane& k) {
  return std::rotl(lane + word * k.word_multiplier, k.rotation) * k.lane_multiplier;
}

// Final avalanche (a bijection too): every input bit reaches every output bit.
constexpr u64 finish(u64 lane) {
  lane = (lane ^ (lane >> 33)) * 0xff51afd7ed558ccdull;
  lane = (lane ^ (lane >> 33)) * 0xc4ceb9fe1a85ec53ull;
  return lane ^ (lane >> 33);
}

// `size` (<= 8) bytes at `data` as a little-endian word, zero-extended.
u64 load_word(const u8* data, usize size) {
  u64 word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, data, size);
  } else {
    for (usize i = 0; i < size; ++i) word |= u64{data[i]} << (8 * i);
  }
  return word;
}

constexpr std::string_view kSchema = "smtu-simcache-v1";

// A temp-file name no other writer shares: two processes on one cache
// directory, or two SimCache objects in one process, may store the same key
// at once, and with a shared name one writer's truncate or rename pulls the
// file out from under the other's.
std::string unique_temp_path(const std::string& path) {
  static std::atomic<u64> counter{0};
  return format("%s.%lld-%llu.tmp", path.c_str(), static_cast<long long>(::getpid()),
                static_cast<unsigned long long>(counter.fetch_add(1)));
}

}  // namespace

SimHash::SimHash() : lo_(kLo.seed), hi_(kHi.seed) {}

void SimHash::update(std::span<const u8> data) {
  update_u64(data.size());
  u64 lo = lo_;
  u64 hi = hi_;
  usize i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const u64 word = load_word(data.data() + i, 8);
    lo = step(lo, word, kLo);
    hi = step(hi, word, kHi);
  }
  if (i < data.size()) {
    const u64 tail = load_word(data.data() + i, data.size() - i);
    lo = step(lo, tail, kLo);
    hi = step(hi, tail, kHi);
  }
  lo_ = lo;
  hi_ = hi;
}

void SimHash::update(std::string_view text) {
  update(std::span<const u8>(reinterpret_cast<const u8*>(text.data()), text.size()));
}

void SimHash::update_u64(u64 value) {
  lo_ = step(lo_, value, kLo);
  hi_ = step(hi_, value, kHi);
}

std::string SimHash::hex() const {
  return format("%016llx%016llx", static_cast<unsigned long long>(finish(hi_)),
                static_cast<unsigned long long>(finish(lo_)));
}

std::string sim_cache_key(std::string_view program_source, const MachineConfig& config,
                          std::span<const u8> image,
                          std::span<const std::pair<u32, u64>> entry_sregs) {
  SimHash hash;
  hash.update(program_source);
  // The config's timing knobs, via its canonical JSON rendering (every field
  // that shapes cycle counts is in there, and the schema moves with the code).
  std::ostringstream config_json;
  {
    JsonWriter json(config_json);
    write_machine_config_json(json, config);
    SMTU_CHECK(json.complete());
  }
  hash.update(config_json.view());
  hash.update(image);
  hash.update_u64(entry_sregs.size());
  for (const auto& [reg, value] : entry_sregs) {
    hash.update_u64(reg);
    hash.update_u64(value);
  }
  return hash.hex();
}

SimCache::SimCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  SMTU_CHECK_MSG(!ec, "sim-cache: cannot create directory " + dir_);
}

std::string SimCache::path_for(const std::string& key) const {
  return (std::filesystem::path(dir_) / (key + ".json")).string();
}

std::optional<SimCache::Entry> SimCache::read_entry(const std::string& key) const {
  std::ifstream in(path_for(key), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();

  const std::optional<JsonValue> doc = parse_json(text.view());
  if (!doc.has_value()) return std::nullopt;  // partial/corrupt entry: re-simulate
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != kSchema) {
    return std::nullopt;
  }
  // A file renamed or copied under another key's name is not that key's run.
  const JsonValue* stored_key = doc->find("key");
  if (stored_key == nullptr || !stored_key->is_string() || stored_key->as_string() != key) {
    return std::nullopt;
  }

  Entry entry;
  const JsonValue* verified = doc->find("verified");
  entry.verified = verified != nullptr && verified->is_bool() && verified->as_bool();
  const JsonValue* profile = doc->find("profile");
  if (profile != nullptr && profile->is_string()) entry.profile_json = profile->as_string();

  const JsonValue* stats = doc->find("stats");
  if (stats == nullptr) return std::nullopt;
  const std::optional<RunStats> parsed = run_stats_from_json(*stats);
  if (!parsed.has_value()) return std::nullopt;
  entry.stats = *parsed;
  return entry;
}

std::optional<SimCache::Entry> SimCache::lookup(const std::string& key, bool need_verified,
                                                bool need_profile) {
  telemetry::HostSpan span("cache.sim.lookup_us");
  const auto satisfies = [&](const Entry& entry) {
    return (!need_verified || entry.verified) && (!need_profile || !entry.profile_json.empty());
  };

  std::optional<Entry> entry;
  {
    // Memo first: the disk round-trip (open + read + JSON parse) is the
    // expensive part of a hit and its result cannot go stale — entries only
    // ever gain information (store() merges, never downgrades).
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = memo_.find(key); it != memo_.end() && satisfies(it->second)) {
      entry = it->second;
    }
  }
  if (!entry.has_value()) {
    entry = read_entry(key);
    if (entry.has_value() && !satisfies(*entry)) {
      entry.reset();  // the cached run produced less than this lookup needs
    }
    if (entry.has_value()) {
      std::lock_guard<std::mutex> lock(mutex_);
      memo_[key] = *entry;
    }
  }
  if (telemetry::enabled()) {
    telemetry::counter(entry.has_value() ? "cache.sim.hits_total" : "cache.sim.misses_total")
        .add(1);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++(entry.has_value() ? stats_.hits : stats_.misses);
  return entry;
}

void SimCache::store(const std::string& key, const Entry& entry) {
  // Merge with any existing entry so a later plain run never downgrades a
  // verified or profiled one.
  Entry merged = entry;
  if (const std::optional<Entry> existing = read_entry(key); existing.has_value()) {
    merged.verified = merged.verified || existing->verified;
    if (merged.profile_json.empty()) merged.profile_json = existing->profile_json;
  }

  std::ostringstream text;
  {
    JsonWriter json(text);
    json.begin_object();
    json.key("schema");
    json.value(std::string(kSchema));
    json.key("key");
    json.value(key);
    json.key("verified");
    json.value(merged.verified);
    json.key("profiled");
    json.value(!merged.profile_json.empty());
    json.key("stats");
    write_run_stats_json(json, merged.stats);
    json.key("profile");
    if (merged.profile_json.empty()) {
      json.null();
    } else {
      json.value(merged.profile_json);
    }
    json.end_object();
    SMTU_CHECK(json.complete());
  }

  // Temp-file + rename so concurrent readers never see a partial entry.
  const std::string path = path_for(key);
  const std::string tmp = unique_temp_path(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    SMTU_CHECK_MSG(out.good(), "sim-cache: cannot write " + tmp);
    out << text.view();
    out.flush();
    SMTU_CHECK_MSG(out.good(), "sim-cache: write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  SMTU_CHECK_MSG(!ec, "sim-cache: rename failed for " + path);

  if (telemetry::enabled()) {
    telemetry::counter("cache.sim.stores_total").add(1);
    telemetry::counter("cache.sim.bytes_total").add(text.view().size());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  memo_[key] = merged;
}

SimCache::Stats SimCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

SimCache* sim_cache_for(const std::optional<std::string>& dir) {
  if (!dir) return nullptr;
  static std::mutex mutex;
  static auto* caches = new std::unordered_map<std::string, std::unique_ptr<SimCache>>();
  std::lock_guard<std::mutex> lock(mutex);
  auto& slot = (*caches)[*dir];
  if (!slot) slot = std::make_unique<SimCache>(*dir);
  return slot.get();
}

}  // namespace smtu::vsim
