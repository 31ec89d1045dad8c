// The benchmark's three workloads (README.md says why each exists).
//
// A workload is built from its seed, set up (inputs generated, caches warmed
// where the workload keeps them warm, served results verified), then run in
// timed rounds. Each round reports its host wall time, the operations it
// attempted and how many failed their check, and the per-layer counts the
// traced run turns into metrics. Checks run outside the timed part.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace hostbench {

using smtu::u32;
using smtu::u64;
using smtu::usize;

struct WorkloadOptions {
  u64 seed = 1;
  bool smoke = false;  // tiny inputs for the self-test
  u32 jobs = 1;        // host worker threads for the batched serve workloads
  std::filesystem::path work_dir;  // scratch space inside the checkout
};

struct RoundResult {
  double wall_s = 0.0;  // timed part of the round (excludes checks)
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<double> op_ms;      // host latency per operation
  double delivered_cycles = 0.0;  // simulated cycles of the results returned
  std::map<std::string, double> counts;  // per-layer work counts, see main.cpp
};

// The two deterministic model metrics: they repeat exactly for a seed, so a
// host-speed change that moves them changed the model.
struct ModelMetrics {
  double hism_speedup_avg = 0.0;
  u64 virtual_p99_vus = 0;
  bool operator==(const ModelMetrics&) const = default;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Generates the inputs and brings the workload to its steady state. May
  // run several times (set-up time is their median); each call starts from
  // cold library caches. Returns the number of failed set-up checks.
  virtual u64 setup() = 0;
  virtual RoundResult round() = 0;
  virtual u64 ops_per_round() const = 0;
  // Valid after the first round; every later round must reproduce it.
  virtual ModelMetrics model() const = 0;
};

// "paper_suite", "serve_zipf" or "design_sweep"; nullptr for another name.
std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadOptions& options);

// Empties the process-wide program and matrix-stage caches.
void clear_library_caches();

}  // namespace hostbench
