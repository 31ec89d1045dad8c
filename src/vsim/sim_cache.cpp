#include "vsim/sim_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
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

constexpr u64 kFnvPrime = 1099511628211ull;
constexpr u64 kFnvOffset = 14695981039346656037ull;
// Second stream: a distinct offset basis keeps the two 64-bit hashes
// decorrelated enough for content addressing.
constexpr u64 kFnvOffsetAlt = kFnvOffset ^ 0x9e3779b97f4a7c15ull;

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

SimHash::SimHash() : lo_(kFnvOffset), hi_(kFnvOffsetAlt) {}

void SimHash::update(std::span<const u8> data) {
  u64 lo = lo_;
  u64 hi = hi_;
  for (const u8 byte : data) {
    lo = (lo ^ byte) * kFnvPrime;
    hi = (hi ^ byte) * kFnvPrime;
  }
  lo_ = lo;
  hi_ = hi;
}

void SimHash::update(std::string_view text) {
  update(std::span<const u8>(reinterpret_cast<const u8*>(text.data()), text.size()));
}

void SimHash::update_u64(u64 value) {
  u8 bytes[8];
  for (u32 i = 0; i < 8; ++i) bytes[i] = static_cast<u8>(value >> (8 * i));
  update(std::span<const u8>(bytes, 8));
}

std::string SimHash::hex() const {
  return format("%016llx%016llx", static_cast<unsigned long long>(hi_),
                static_cast<unsigned long long>(lo_));
}

std::string sim_cache_key(std::string_view program_source, const MachineConfig& config,
                          std::span<const u8> image,
                          std::span<const std::pair<u32, u64>> entry_sregs) {
  SimHash hash;
  hash.update_u64(program_source.size());
  hash.update(program_source);
  // The config's timing knobs, via its canonical JSON rendering (every field
  // that shapes cycle counts is in there, and the schema moves with the code).
  std::ostringstream config_json;
  {
    JsonWriter json(config_json);
    write_machine_config_json(json, config);
    SMTU_CHECK(json.complete());
  }
  hash.update_u64(config_json.view().size());
  hash.update(config_json.view());
  hash.update_u64(image.size());
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
