#include "vsim/memory.hpp"

#include <bit>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace smtu::vsim {

void Memory::attach_base(std::shared_ptr<const std::vector<u8>> base) {
  SMTU_CHECK_MSG(base != nullptr, "attach_base: null snapshot");
  SMTU_CHECK_MSG(base->size() <= limit_, "attach_base: snapshot exceeds the memory limit");
  bytes_.clear();
  base_ = std::move(base);
  refresh_view();
}

std::shared_ptr<const std::vector<u8>> Memory::snapshot_of(Addr addr,
                                                           std::span<const u8> data) {
  Memory memory;
  memory.write_block(addr, data);
  return std::make_shared<const std::vector<u8>>(std::move(memory.bytes_));
}

void Memory::privatize() {
  if (base_ == nullptr) return;
  bytes_.assign(base_->begin(), base_->end());
  base_.reset();
  refresh_view();
}

void Memory::ensure_slow(Addr addr, u64 len) {
  const u64 end = addr + len;
  SMTU_CHECK_MSG(end >= addr, "address overflow");
  SMTU_CHECK_MSG(end <= limit_, format("memory access at 0x%llx exceeds the %llu-byte limit",
                                       static_cast<unsigned long long>(addr),
                                       static_cast<unsigned long long>(limit_)));
  privatize();
  if (end > bytes_.size()) {
    // Grow geometrically to keep amortized cost low.
    u64 new_size = bytes_.size() == 0 ? 4096 : bytes_.size();
    while (new_size < end) new_size *= 2;
    bytes_.resize(std::min(new_size, limit_), 0);
  }
  refresh_view();
}

void Memory::read_out_of_bounds(Addr addr) const {
  SMTU_CHECK_MSG(false, format("read at 0x%llx beyond allocated memory",
                               static_cast<unsigned long long>(addr)));
  __builtin_unreachable();
}

float Memory::read_f32(Addr addr) const { return std::bit_cast<float>(read_u32(addr)); }

void Memory::write_f32(Addr addr, float value) { write_u32(addr, std::bit_cast<u32>(value)); }

void Memory::write_block(Addr addr, std::span<const u8> data) {
  ensure(addr, data.size());
  // An empty span may hold a null pointer, which memcpy must not get even
  // for zero bytes.
  if (!data.empty()) std::memcpy(bytes_.data() + addr, data.data(), data.size());
}

}  // namespace smtu::vsim
