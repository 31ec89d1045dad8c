// Content-addressed on-disk cache of simulation results.
//
// A simulation is a pure function of (program source, MachineConfig, staged
// memory image, entry scalar registers), so its RunStats — and the rendered
// profile section when profiling — can be memoized under a hash of those
// inputs. Repeated or overlapping bench runs (`--sim-cache DIR`) then skip
// the simulation entirely while producing bit-identical reports.
//
// One JSON file per entry, named <hash>.json in the cache directory:
//
//   {"schema": "smtu-simcache-v1", "key": "<hash>", "verified": ...,
//    "profiled": ..., "stats": {<RunStats counters>},
//    "profile": "<rendered JSON>" | null}
//
// An entry whose `key` is missing or names another hash is a miss.
// `verified` records whether the cached run also passed the caller's
// correctness check (lookups that need verification treat unverified
// entries as misses); `profile` is the pre-rendered smtu-profile-v1 object
// the report splices back in via JsonWriter::raw. A new entry is written to
// an unnamed file (O_TMPFILE) and linked in whole; an existing one, or any
// entry where the system cannot link one in, goes through a temp file of
// its writer's own and a rename. So concurrent writers never clash and
// readers never observe partial entries.
#pragma once

#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "vsim/machine.hpp"

namespace smtu::vsim {

// 128-bit content hash as 32 lowercase hex digits. Two 64-bit lanes each
// consume 8 bytes per step (multiply, rotate, multiply, with constants of
// their own) and are avalanched once in hex(). Stable across platforms and
// runs; it names sim-cache entries on disk, so tests/test_sim_cache.cpp
// pins its output.
class SimHash {
 public:
  SimHash();
  // Mixes in data.size() first, then the bytes: inputs that differ only in
  // trailing zero bytes, or in how a byte stream is split across updates,
  // hash apart.
  void update(std::span<const u8> data);
  void update(std::string_view text);
  // One fixed-width word, one step.
  void update_u64(u64 value);
  std::string hex() const;

 private:
  u64 lo_;
  u64 hi_;
};

// The cache key for one simulation: feed every timing-relevant input.
std::string sim_cache_key(std::string_view program_source, const MachineConfig& config,
                          std::span<const u8> image,
                          std::span<const std::pair<u32, u64>> entry_sregs);

class SimCache {
 public:
  struct Entry {
    RunStats stats;
    bool verified = false;
    // Rendered smtu-profile-v1 JSON, empty when the run was not profiled.
    std::string profile_json;
  };

  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
    u64 stores = 0;
  };

  // Creates `dir` (and parents) if needed.
  explicit SimCache(std::string dir);

  // The entry for `key`, or nullopt. An entry misses when `need_verified`
  // or `need_profile` asks for more than the cached run produced.
  std::optional<Entry> lookup(const std::string& key, bool need_verified, bool need_profile);

  // Stores (or upgrades) the entry for `key`.
  void store(const std::string& key, const Entry& entry);

  const std::string& dir() const { return dir_; }
  Stats stats() const;

 private:
  std::string path_for(const std::string& key) const;
  // Reads and parses the on-disk entry without touching the hit/miss stats.
  std::optional<Entry> read_entry(const std::string& key) const;

  std::string dir_;
  mutable std::mutex mutex_;
  Stats stats_;
  // In-memory memo of on-disk entries: under serving load the same key is
  // looked up once per duplicate request, and re-reading + re-parsing the
  // JSON file each time dominated the lookup profile. Negative results are
  // not memoized (a concurrent process may store the entry at any moment).
  std::unordered_map<std::string, Entry> memo_;
};

// The process-wide SimCache for `dir`: one instance per directory, so a
// process keeps one memo table and one set of hit/miss counters per cache
// however many benches or servers use it. nullptr when `dir` is empty.
SimCache* sim_cache_for(const std::optional<std::string>& dir);

}  // namespace smtu::vsim
