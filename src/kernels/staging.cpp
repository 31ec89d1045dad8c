#include "kernels/staging.hpp"

#include <bit>

#include "support/assert.hpp"
#include "support/telemetry.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu::kernels {
namespace {

// Content key for a COO matrix: layout, salt, dimensions and every entry.
// Stage keys never leave the process, so the entries need not go through
// SimHash's two dependent lanes word by word: entry i goes to lane i % 4 of
// four independent ones, one multiply per word, and only the lane states
// reach the 128-bit SimHash. Each step is a bijection of the lane for a
// fixed word and of the word for a fixed lane, so two inputs that differ in
// one word end with different lane states.
std::string coo_key(const Coo& coo, std::string_view layout, u64 salt) {
  constexpr u64 kMultiplier = 0x9e3779b97f4a7c15ull;
  const auto step = [](u64 lane, u64 word) { return std::rotl((lane ^ word) * kMultiplier, 29); };
  const auto entry_step = [&](u64 lane, const CooEntry& entry) {
    lane = step(lane, entry.row);
    lane = step(lane, entry.col);
    return step(lane, std::bit_cast<u32>(entry.value));
  };
  u64 lanes[4] = {1, 2, 3, 4};
  const std::vector<CooEntry>& entries = coo.entries();
  usize i = 0;
  for (; i + 4 <= entries.size(); i += 4) {
    for (usize lane = 0; lane < 4; ++lane) lanes[lane] = entry_step(lanes[lane], entries[i + lane]);
  }
  for (usize lane = 0; i < entries.size(); ++i, ++lane) {
    lanes[lane] = entry_step(lanes[lane], entries[i]);
  }

  vsim::SimHash hash;
  hash.update(layout);
  hash.update_u64(salt);
  hash.update_u64(coo.rows());
  hash.update_u64(coo.cols());
  hash.update_u64(coo.nnz());
  for (const u64 lane : lanes) hash.update_u64(lane);
  return hash.hex();
}

}  // namespace

// Both builders write the image into the zeroed buffer that becomes the
// snapshot, so no image is copied.
HismStage build_hism_stage(HismMatrix hism) {
  telemetry::HostSpan span("stage.build_us");
  HismStage stage;
  stage.hism = std::move(hism);
  stage.image = hism_image_layout(stage.hism, kImageBase);
  auto bytes = std::make_shared<std::vector<u8>>(vsim::Memory::snapshot_size(stage.image.end));
  write_hism_image(stage.hism, stage.image, *bytes);
  stage.snapshot = std::move(bytes);
  return stage;
}

CrsStage build_crs_stage(Csr csr) {
  telemetry::HostSpan span("stage.build_us");
  CrsStage stage;
  stage.csr = std::move(csr);
  stage.image = crs_image_layout(stage.csr.rows(), stage.csr.cols(), stage.csr.nnz(), kImageBase);
  auto bytes = std::make_shared<std::vector<u8>>(vsim::Memory::snapshot_size(stage.image.end));
  write_crs_image(stage.csr, stage.image, *bytes);
  stage.snapshot = std::move(bytes);
  return stage;
}

vsim::Machine staged_machine(const HismStage& stage, const vsim::MachineConfig& config) {
  SMTU_CHECK_MSG(stage.hism.section() == config.section,
                 "HiSM section size must match the machine section size");
  vsim::Machine machine(config);
  machine.memory().attach_base(stage.snapshot);
  return machine;
}

vsim::Machine staged_machine(const CrsStage& stage, const vsim::MachineConfig& config) {
  vsim::Machine machine(config);
  machine.memory().attach_base(stage.snapshot);
  return machine;
}

vsim::Machine transpose_machine(const HismStage& stage, const vsim::MachineConfig& config) {
  vsim::Machine machine = staged_machine(stage, config);
  machine.set_sreg(1, stage.image.root_addr);
  machine.set_sreg(2, stage.image.root_len);
  machine.set_sreg(3, stage.image.levels - 1);
  machine.set_sreg(vsim::kRegSp, kStackTop);
  return machine;
}

vsim::Machine transpose_machine(const CrsStage& stage, const vsim::MachineConfig& config) {
  vsim::Machine machine = staged_machine(stage, config);
  const CrsImage& image = stage.image;
  machine.set_sreg(1, image.an);
  machine.set_sreg(2, image.ja);
  machine.set_sreg(3, image.ia);
  machine.set_sreg(4, image.ant);
  machine.set_sreg(5, image.jat);
  machine.set_sreg(6, image.iat);
  machine.set_sreg(7, image.rows);
  machine.set_sreg(8, image.cols);
  machine.set_sreg(9, image.nnz);
  return machine;
}

MatrixStageCache& MatrixStageCache::instance() {
  static MatrixStageCache cache;
  return cache;
}

template <typename Stage, typename Build>
std::shared_ptr<const Stage> MatrixStageCache::lookup(Entries<Stage>& entries, const Coo& coo,
                                                      std::string_view layout, u64 salt,
                                                      Build&& build) {
  telemetry::HostSpan span("cache.stage.lookup_us");
  const std::string key = coo_key(coo, layout, salt);
  std::shared_ptr<Slot<Stage>> slot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& entry = entries[key];
    if (!entry) entry = std::make_shared<Slot<Stage>>();
    slot = entry;
  }
  // Build under the slot's lock only (conversions are the expensive part),
  // so other keys stage in parallel, while lookups of this key that race
  // the build wait for it rather than build copies of their own: a config
  // sweep over one matrix starts every worker on the same stage at once.
  // A build that throws leaves the slot empty for the next lookup.
  std::shared_ptr<const Stage> stage;
  bool hit = true;
  {
    std::lock_guard<std::mutex> building(slot->build);
    if (!slot->stage) {
      slot->stage = std::make_shared<const Stage>(build());
      hit = false;
    }
    stage = slot->stage;
  }
  if (telemetry::enabled()) {
    telemetry::counter(hit ? "cache.stage.hits_total" : "cache.stage.misses_total").add(1);
    if (!hit) telemetry::counter("cache.stage.bytes_total").add(stage->snapshot->size());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++(hit ? stats_.hits : stats_.misses);
  return stage;
}

std::shared_ptr<const HismStage> MatrixStageCache::hism(const Coo& coo, u32 section) {
  return lookup(hism_entries_, coo, "hism", section,
                [&] { return build_hism_stage(HismMatrix::from_coo(coo, section)); });
}

std::shared_ptr<const CrsStage> MatrixStageCache::crs(const Coo& coo) {
  return lookup(crs_entries_, coo, "crs", 0, [&] { return build_crs_stage(Csr::from_coo(coo)); });
}

MatrixStageCache::Stats MatrixStageCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void MatrixStageCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  const usize dropped = hism_entries_.size() + crs_entries_.size();
  if (telemetry::enabled() && dropped != 0) {
    telemetry::counter("cache.stage.evictions_total").add(dropped);
  }
  hism_entries_.clear();
  crs_entries_.clear();
  stats_ = {};
}

}  // namespace smtu::kernels
