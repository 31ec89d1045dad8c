#include "kernels/staging.hpp"

#include <bit>

#include "support/assert.hpp"
#include "support/telemetry.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu::kernels {
namespace {

// Content key for a COO matrix: dimensions plus a 128-bit hash over the
// canonical entry stream.
std::string coo_key(const Coo& coo, std::string_view layout, u64 salt) {
  vsim::SimHash hash;
  hash.update(layout);
  hash.update_u64(salt);
  hash.update_u64(coo.rows());
  hash.update_u64(coo.cols());
  hash.update_u64(coo.nnz());
  for (const CooEntry& entry : coo.entries()) {
    hash.update_u64(entry.row);
    hash.update_u64(entry.col);
    hash.update_u64(std::bit_cast<u32>(entry.value));
  }
  return hash.hex();
}

}  // namespace

HismStage build_hism_stage(HismMatrix hism) {
  telemetry::HostSpan span("stage.build_us");
  HismStage stage;
  stage.hism = std::move(hism);
  stage.image = build_hism_image(stage.hism, kImageBase);
  stage.snapshot = vsim::Memory::snapshot_of(stage.image.base, stage.image.bytes);
  return stage;
}

CrsStage build_crs_stage(Csr csr) {
  telemetry::HostSpan span("stage.build_us");
  CrsStage stage;
  stage.csr = std::move(csr);
  std::vector<u8> bytes;
  stage.image = build_crs_image(stage.csr, kImageBase, bytes);
  stage.snapshot = vsim::Memory::snapshot_of(kImageBase, bytes);
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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries.find(key);
    if (it != entries.end()) {
      ++stats_.hits;
      if (telemetry::enabled()) telemetry::counter("cache.stage.hits_total").add(1);
      return it->second;
    }
  }
  // Build outside the lock (conversions are the expensive part); a racing
  // duplicate builds twice and the first insert wins.
  auto stage = std::make_shared<const Stage>(build());
  if (telemetry::enabled()) {
    telemetry::counter("cache.stage.misses_total").add(1);
    telemetry::counter("cache.stage.bytes_total").add(stage->snapshot->size());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  return entries.emplace(key, std::move(stage)).first->second;
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
