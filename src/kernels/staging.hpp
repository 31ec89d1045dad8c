// Staged matrix images: the one way a HiSM or CRS matrix enters a
// single-core machine.
//
// Every (matrix, layout) pair stages to the same bytes no matter which
// machine runs the kernel, so the conversion (from_coo) and the serialized
// image are built once and wrapped in an immutable snapshot that machines
// attach copy-on-write (vsim::Memory::attach_base). Every HiSM and CRS
// runner takes a stage; a config ladder over one matrix then shares one
// image instead of rebuilding it per config.
//
// The snapshot covers [0, size) from address zero with the image at
// kImageBase, written straight into it. vsim::Memory::snapshot_size sizes
// it, by the same growth rule as memory written in place, so a kernel
// reading past the image sees what it would see on a machine whose memory
// had the image written into it.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "hism/hism.hpp"
#include "kernels/layout.hpp"

namespace smtu::kernels {

// A HiSM matrix staged once: the hierarchy, where its image lies, and the
// shared byte snapshot machines attach, which holds the image's only bytes.
struct HismStage {
  HismMatrix hism;
  HismImage image;
  std::shared_ptr<const std::vector<u8>> snapshot;
};

// A CRS matrix staged once (input arrays serialized, outputs zeroed).
struct CrsStage {
  Csr csr;
  CrsImage image;
  std::shared_ptr<const std::vector<u8>> snapshot;
};

// Stage builders, for a matrix built once; MatrixStageCache below builds
// each (matrix, layout) once per process.
HismStage build_hism_stage(HismMatrix hism);
CrsStage build_crs_stage(Csr csr);

// A fresh machine that reads the stage's snapshot copy-on-write; the
// runner sets the entry registers. The HiSM overload checks that the
// machine's section is the matrix's.
vsim::Machine staged_machine(const HismStage& stage, const vsim::MachineConfig& config);
vsim::Machine staged_machine(const CrsStage& stage, const vsim::MachineConfig& config);

// A staged machine with the entry registers every single-core transposition
// program on that image expects — one setup per image kind:
//   HiSM: r1 root block-array address, r2 its length, r3 the top level, sp
//         the stack top;
//   CRS:  r1 &AN, r2 &JA, r3 &IA, r4 &ANT, r5 &JAT, r6 &IAT, r7 rows,
//         r8 cols, r9 nnz.
vsim::Machine transpose_machine(const HismStage& stage, const vsim::MachineConfig& config);
vsim::Machine transpose_machine(const CrsStage& stage, const vsim::MachineConfig& config);

// Process-wide cache from matrix content to its staged image. Thread-safe;
// keyed by dimensions plus a content hash of the COO entries (and the
// section size for HiSM, whose layout depends on it). The key lives only in
// this process: nothing stores or compares it elsewhere. Each key's stage
// is built once: a lookup that arrives while another builds it waits for
// that build and counts as a hit.
class MatrixStageCache {
 public:
  struct Stats {
    u64 hits = 0;
    u64 misses = 0;
  };

  static MatrixStageCache& instance();

  std::shared_ptr<const HismStage> hism(const Coo& coo, u32 section);
  std::shared_ptr<const CrsStage> crs(const Coo& coo);

  Stats stats() const;
  void clear();

 private:
  // One key's stage; its builder holds `build` until `stage` is set.
  template <typename Stage>
  struct Slot {
    std::mutex build;
    std::shared_ptr<const Stage> stage;
  };
  template <typename Stage>
  using Entries = std::unordered_map<std::string, std::shared_ptr<Slot<Stage>>>;

  // The one lookup behind hism() and crs(): the stage cached under the
  // matrix's content key for `layout`, built by `build` on a miss.
  template <typename Stage, typename Build>
  std::shared_ptr<const Stage> lookup(Entries<Stage>& entries, const Coo& coo,
                                      std::string_view layout, u64 salt, Build&& build);

  mutable std::mutex mutex_;
  Entries<HismStage> hism_entries_;
  Entries<CrsStage> crs_entries_;
  Stats stats_;
};

}  // namespace smtu::kernels
