// One transpose simulation as the benches and the server run it: the
// paper's HiSM kernel through the STM (Figs. 6/7) or its CRS baseline
// (Fig. 9) on one matrix, through the on-disk sim cache when one is given.
//
// This is the one place that derives a sim-cache key. The key hashes the
// kernel source the runners' defaults choose, the MachineConfig and the
// staged image; the entry registers are a pure function of that image.
#pragma once

#include <string>

#include "formats/coo.hpp"
#include "vsim/machine.hpp"

namespace smtu::vsim {
class SimCache;
}

namespace smtu::kernels {

// serve::Kernel is this enum, with the same values.
enum class TransposeKernel : u32 {
  kHism = 0,  // HiSM transpose through the STM (kernels/hism_transpose)
  kCrs = 1,   // vectorized CRS baseline (kernels/crs_transpose)
};

struct TransposeRun {
  vsim::RunStats stats;
  // The rendered smtu-profile-v1 section when profiled, else empty.
  std::string profile_json;
  // False only when a verifying run decoded a transpose other than
  // matrix.transposed(); such a run is never stored.
  bool correct = true;
};

// Runs `kernel` on `matrix`, staged through MatrixStageCache. A non-null
// `cache` replays an entry that is verified when `verify` is set and
// profiled when `profile` is set; otherwise the run simulates and stores
// (or upgrades) its entry. `verify` decodes the result from simulated
// memory and compares it with matrix.transposed(); `profile` attaches a
// cycle-attribution profiler.
TransposeRun simulate_transpose(TransposeKernel kernel, const Coo& matrix,
                                const vsim::MachineConfig& config, bool verify, bool profile,
                                vsim::SimCache* cache);

}  // namespace smtu::kernels
