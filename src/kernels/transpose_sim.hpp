// One single-core transposition as the benches and the server run it: a
// program on a staged HiSM or CRS image of one matrix (the paper's HiSM
// kernel through the STM, Figs. 6/7, its CRS baseline, Fig. 9, or a variant
// of either), through the on-disk sim cache when one is given.
//
// This is the one place that derives a sim-cache key, and the one path that
// runs a transposition without decoding its result. The key hashes the
// program source, the MachineConfig and the staged image; the entry
// registers are a pure function of that image (kernels::transpose_machine).
#pragma once

#include <string>

#include "formats/coo.hpp"
#include "vsim/machine.hpp"

namespace smtu::vsim {
class SimCache;
}

namespace smtu::kernels {

// The staged image a transposition program runs on; it fixes the entry
// registers (kernels/staging.hpp) and the decode.
enum class TransposeImage : u8 {
  kHism,  // HismStage: the program transposes the image in place
  kCrs,   // CrsStage: the program writes ANT/JAT/IAT
};

struct TransposeProgram {
  TransposeImage image = TransposeImage::kHism;
  std::string source;
};

// The two programs the paper compares: hism_transpose_source() on the HiSM
// image and crs_transpose_source(section) on the CRS image.
TransposeProgram hism_transpose_program();
TransposeProgram crs_transpose_program(u32 section);

struct TransposeRun {
  vsim::RunStats stats;
  // The rendered smtu-profile-v1 section when profiled, else empty.
  std::string profile_json;
  // False only when a verifying run decoded a transpose other than
  // matrix.transposed(); such a run is never stored.
  bool correct = true;
};

// Runs `program` on `matrix`, staged through MatrixStageCache. A non-null
// `cache` replays an entry that is verified when `verify` is set and
// profiled when `profile` is set; otherwise the run simulates and stores
// (or upgrades) its entry. `verify` runs the image's runner
// (run_hism_transpose / run_crs_transpose), which decodes the result from
// simulated memory, and compares it with matrix.transposed(); without it
// the run skips the decode. `profile` attaches a cycle-attribution
// profiler.
TransposeRun simulate_transpose(const TransposeProgram& program, const Coo& matrix,
                                const vsim::MachineConfig& config, bool verify, bool profile,
                                vsim::SimCache* cache);

}  // namespace smtu::kernels
