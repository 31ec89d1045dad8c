#include "kernels/transpose_sim.hpp"

#include <optional>
#include <sstream>

#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/staging.hpp"
#include "support/json.hpp"
#include "vsim/json_export.hpp"
#include "vsim/profiler.hpp"
#include "vsim/program_cache.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu::kernels {
namespace {

std::string render_profile_json(const vsim::PerfCounters& profile) {
  std::ostringstream out;
  JsonWriter json(out);
  vsim::write_profile_json(json, profile);
  return out.str();
}

}  // namespace

TransposeProgram hism_transpose_program() {
  return {TransposeImage::kHism, hism_transpose_source()};
}

TransposeProgram crs_transpose_program(u32 section) {
  return {TransposeImage::kCrs, crs_transpose_source(section)};
}

TransposeRun simulate_transpose(const TransposeProgram& program, const Coo& matrix,
                                const vsim::MachineConfig& config, bool verify, bool profile,
                                vsim::SimCache* cache) {
  const bool hism = program.image == TransposeImage::kHism;
  std::shared_ptr<const HismStage> hism_stage;
  std::shared_ptr<const CrsStage> crs_stage;
  if (hism) {
    hism_stage = MatrixStageCache::instance().hism(matrix, config.section);
  } else {
    crs_stage = MatrixStageCache::instance().crs(matrix);
  }

  std::string key;
  if (cache != nullptr) {
    key = vsim::sim_cache_key(program.source, config,
                              hism ? *hism_stage->snapshot : *crs_stage->snapshot, {});
    if (std::optional<vsim::SimCache::Entry> hit = cache->lookup(key, verify, profile)) {
      return {hit->stats, std::move(hit->profile_json), true};
    }
  }

  vsim::PerfCounters counters;
  vsim::PerfCounters* profiler = profile ? &counters : nullptr;
  TransposeRun run;
  if (verify && hism) {
    const HismTransposeResult result =
        run_hism_transpose(*hism_stage, config, program.source, nullptr, profiler);
    run.stats = result.stats;
    run.correct = structurally_equal(result.transposed.to_coo(), matrix.transposed());
  } else if (verify) {
    const CrsTransposeResult result =
        run_crs_transpose(*crs_stage, config, program.source, profiler);
    run.stats = result.stats;
    run.correct = structurally_equal(result.transposed, matrix.transposed());
  } else {
    vsim::Machine machine = hism ? transpose_machine(*hism_stage, config)
                                 : transpose_machine(*crs_stage, config);
    machine.attach_profiler(profiler);
    run.stats = machine.run(*vsim::ProgramCache::instance().get(program.source));
  }
  if (profile) run.profile_json = render_profile_json(counters);
  if (cache != nullptr && run.correct) cache->store(key, {run.stats, verify, run.profile_json});
  return run;
}

}  // namespace smtu::kernels
