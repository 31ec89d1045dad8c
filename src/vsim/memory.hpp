// Byte-addressable little-endian main memory of the simulated machine.
//
// Storage grows on demand up to a configurable limit, from 4096 bytes by
// doubling; reads of never-written memory return zero (the region is
// allocated zero-filled). Functional only — access *timing* lives in the
// Machine's vector/scalar memory models.
//
// A memory may also attach an immutable shared snapshot (a staged workload
// image, sized by snapshot_of with the same growth rule) that it reads
// through copy-on-write: many machines share one base image, and the first
// write privatizes a full copy. This is how every HiSM and CRS image
// reaches a machine, so a config ladder over one matrix stages it once.
//
// The accessors are structured for the interpreter's hot loop: the common
// case (in-bounds read through the cached view, in-bounds write into private
// storage) is a branch plus a memcpy, inline at every call site; the rare
// cases (grow, privatize, out-of-bounds abort) live out of line. The span
// accessors amortize that branch to one bounds check per vector instruction
// for contiguous accesses.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "support/types.hpp"

namespace smtu::vsim {

class Memory {
 public:
  explicit Memory(u64 limit_bytes = u64{1} << 30) : limit_(limit_bytes) {}

  u64 size() const { return view_size_; }
  u64 limit() const { return limit_; }

  // Attaches `base` as a shared immutable snapshot covering [0, base->size()).
  // Reads are served from it until the first write copies it into private
  // storage. Replaces any previously attached snapshot or private content.
  void attach_base(std::shared_ptr<const std::vector<u8>> base);

  // The bytes a fresh memory holds after write_block(addr, data), as a
  // snapshot for attach_base. Sizing it by write_block's own growth rule
  // keeps reads past a staged image (zeros, or the out-of-bounds abort)
  // exactly as they would be on memory that had the image written into it.
  static std::shared_ptr<const std::vector<u8>> snapshot_of(Addr addr,
                                                            std::span<const u8> data);

  // Grows the backing store to cover [0, addr + len); aborts past the limit.
  void ensure(Addr addr, u64 len) {
    if (!writable(addr, len)) [[unlikely]] ensure_slow(addr, len);
  }

  u8 read_u8(Addr addr) const {
    check_readable(addr, 1);
    return view_[addr];
  }
  u16 read_u16(Addr addr) const {
    check_readable(addr, 2);
    return static_cast<u16>(view_[addr] | view_[addr + 1] << 8);
  }
  u32 read_u32(Addr addr) const {
    check_readable(addr, 4);
    u32 value;
    std::memcpy(&value, view_ + addr, 4);  // little-endian host
    return value;
  }
  float read_f32(Addr addr) const;

  void write_u8(Addr addr, u8 value) {
    ensure(addr, 1);
    bytes_[addr] = value;
  }
  void write_u16(Addr addr, u16 value) {
    ensure(addr, 2);
    bytes_[addr] = static_cast<u8>(value);
    bytes_[addr + 1] = static_cast<u8>(value >> 8);
  }
  void write_u32(Addr addr, u32 value) {
    ensure(addr, 4);
    std::memcpy(bytes_.data() + addr, &value, 4);
  }
  void write_f32(Addr addr, float value);

  // One-bounds-check bulk access for the contiguous vector memory paths
  // (v_ld/v_st/v_ldb/v_stb/v_stbv): the whole [addr, addr+len) range is
  // checked (or grown) once, then elements move via memcpy. The abort
  // condition is identical to per-element accesses over the same range —
  // contiguous elements cover exactly the span. `len` must be nonzero.
  // The returned pointer is invalidated by any subsequent write/ensure.
  const u8* read_span(Addr addr, u64 len) const {
    check_readable(addr, len);
    return view_ + addr;
  }
  u8* write_span(Addr addr, u64 len) {
    ensure(addr, len);
    return bytes_.data() + addr;
  }

  // Bulk host-side access for laying out workload images. raw() never
  // privatizes an attached snapshot.
  void write_block(Addr addr, std::span<const u8> data);
  std::span<const u8> raw() const { return {view_, view_size_}; }

 private:
  void check_readable(Addr addr, u64 len) const {
    if (addr + len > view_size_ || addr + len < addr) [[unlikely]] read_out_of_bounds(addr);
  }
  bool writable(Addr addr, u64 len) const {
    return base_ == nullptr && addr + len <= bytes_.size() && addr + len >= addr;
  }
  [[noreturn]] void read_out_of_bounds(Addr addr) const;
  // Grow/privatize/abort tail of ensure() (first write, growth, limit).
  void ensure_slow(Addr addr, u64 len);
  // Copies an attached snapshot into private storage (first write).
  void privatize();
  void refresh_view() {
    if (base_ != nullptr) {
      view_ = base_->data();
      view_size_ = base_->size();
    } else {
      view_ = bytes_.data();
      view_size_ = bytes_.size();
    }
  }

  u64 limit_;
  std::vector<u8> bytes_;
  std::shared_ptr<const std::vector<u8>> base_;
  // Cached read window (the snapshot until privatized, bytes_ after) so hot
  // reads skip the base_/bytes_ branch.
  const u8* view_ = nullptr;
  u64 view_size_ = 0;
};

}  // namespace smtu::vsim
