#include "kernels/transpose_sim.hpp"

#include <optional>
#include <sstream>

#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/staging.hpp"
#include "support/json.hpp"
#include "vsim/json_export.hpp"
#include "vsim/profiler.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu::kernels {
namespace {

std::string render_profile_json(const vsim::PerfCounters& profile) {
  std::ostringstream out;
  JsonWriter json(out);
  vsim::write_profile_json(json, profile);
  return out.str();
}

// One live run; `correct` is false when a verifying run decodes the wrong
// transpose.
TransposeRun run_hism(const HismStage& stage, const Coo& matrix,
                      const vsim::MachineConfig& config, bool verify,
                      vsim::PerfCounters* profiler) {
  if (!verify) {
    return {time_hism_transpose(stage, config, /*split_drain_registers=*/false, nullptr,
                                profiler),
            {}, true};
  }
  const HismTransposeResult result =
      run_hism_transpose(stage, config, /*split_drain_registers=*/false, nullptr, profiler);
  return {result.stats, {}, structurally_equal(result.transposed.to_coo(), matrix.transposed())};
}

TransposeRun run_crs(const CrsStage& stage, const Coo& matrix,
                     const vsim::MachineConfig& config, bool verify,
                     vsim::PerfCounters* profiler) {
  if (!verify) return {time_crs_transpose(stage, config, {}, profiler), {}, true};
  const CrsTransposeResult result = run_crs_transpose(stage, config, {}, profiler);
  return {result.stats, {}, structurally_equal(result.transposed, matrix.transposed())};
}

}  // namespace

TransposeRun simulate_transpose(TransposeKernel kernel, const Coo& matrix,
                                const vsim::MachineConfig& config, bool verify, bool profile,
                                vsim::SimCache* cache) {
  const bool hism = kernel == TransposeKernel::kHism;
  std::shared_ptr<const HismStage> hism_stage;
  std::shared_ptr<const CrsStage> crs_stage;
  if (hism) {
    hism_stage = MatrixStageCache::instance().hism(matrix, config.section);
  } else {
    crs_stage = MatrixStageCache::instance().crs(matrix);
  }

  std::string key;
  if (cache != nullptr) {
    key = vsim::sim_cache_key(
        hism ? hism_transpose_source(false) : crs_transpose_source(config.section, {}), config,
        hism ? *hism_stage->snapshot : *crs_stage->snapshot, {});
    if (std::optional<vsim::SimCache::Entry> hit = cache->lookup(key, verify, profile)) {
      return {hit->stats, std::move(hit->profile_json), true};
    }
  }

  vsim::PerfCounters counters;
  vsim::PerfCounters* profiler = profile ? &counters : nullptr;
  TransposeRun run = hism ? run_hism(*hism_stage, matrix, config, verify, profiler)
                          : run_crs(*crs_stage, matrix, config, verify, profiler);
  if (profile) run.profile_json = render_profile_json(counters);
  if (cache != nullptr && run.correct) cache->store(key, {run.stats, verify, run.profile_json});
  return run;
}

}  // namespace smtu::kernels
