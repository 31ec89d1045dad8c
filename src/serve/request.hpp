// The transpose-as-a-service request model (docs/SERVING.md).
//
// A request names a suite matrix, a kernel, a machine-configuration variant,
// and a virtual arrival time. Matrices are referenced by index into the
// trace's suite set (regenerated deterministically from the recorded seed and
// scale on replay) and configurations by index into the trace's variant
// table, so the dedup key of a request is three small integers — cheap to
// hash at admission rate — while the full MachineConfig stays reconstructible
// bit-identically from the trace alone.
#pragma once

#include <string>
#include <string_view>

#include "support/types.hpp"
#include "vsim/config.hpp"

namespace smtu::serve {

// Which simulated kernel serves the request, run by
// kernels::simulate_transpose: the paper's HiSM kernel through the STM or
// its CRS baseline (kernels::hism_transpose_program /
// kernels::crs_transpose_program).
enum class Kernel : u32 {
  kHism = 0,
  kCrs = 1,
};
inline constexpr u32 kKernelCount = 2;

const char* kernel_name(Kernel kernel);
// Returns false (and leaves `kernel` untouched) for unknown names.
bool kernel_from_name(std::string_view name, Kernel& kernel);

// The machine-parameter knobs a trace may vary per request. Everything else
// stays at the MachineConfig defaults (the paper's §IV-A machine), so a
// variant serializes as three integers and replays exactly.
struct ConfigSpec {
  u32 section = 64;        // s: vector register length (STM follows)
  u32 stm_bandwidth = 4;   // B: STM I/O elements per cycle
  u32 stm_lines = 4;       // L: STM lines accessible per cycle

  bool operator==(const ConfigSpec&) const = default;
};

// Expands a variant into the full machine configuration.
vsim::MachineConfig machine_config_for(const ConfigSpec& spec);

// One serving request. `matrix` indexes the trace's suite set and `config`
// its variant table; `arrival_us` is virtual (open-loop) arrival time in
// microseconds from trace start, nondecreasing in trace order.
struct Request {
  u32 id = 0;
  u32 matrix = 0;
  Kernel kernel = Kernel::kHism;
  u32 config = 0;
  u64 arrival_us = 0;
};

// The dedup/batching key: requests agreeing on all three fields are the same
// simulation and coalesce into one run with fan-out of the shared result.
struct SimKey {
  u32 matrix = 0;
  Kernel kernel = Kernel::kHism;
  u32 config = 0;

  bool operator==(const SimKey&) const = default;
};

inline SimKey key_of(const Request& request) {
  return SimKey{request.matrix, request.kernel, request.config};
}

struct SimKeyHash {
  usize operator()(const SimKey& key) const {
    u64 packed = (static_cast<u64>(key.matrix) << 34) ^
                 (static_cast<u64>(key.config) << 2) ^ static_cast<u64>(key.kernel);
    packed *= 0x9e3779b97f4a7c15ull;
    return static_cast<usize>(packed ^ (packed >> 32));
  }
};

}  // namespace smtu::serve
