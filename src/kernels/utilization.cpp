#include "kernels/utilization.hpp"

#include <algorithm>

namespace smtu::kernels {

StmTraceSet stm_block_traces(const HismMatrix& hism) {
  StmTraceSet traces;
  traces.section = hism.section();
  // Fill runs are the storage-order rows with equal neighbours merged.
  // Drain order = the transpose read out row-major, i.e. the stored
  // positions sorted by column; only the column ids reach the timing, so
  // the non-zero bins of a per-column histogram are the drain runs.
  std::vector<u16> per_column(hism.section());
  for (u32 level = 0; level < hism.num_levels(); ++level) {
    for (const BlockArray& block : hism.level(level)) {
      if (block.size() == 0) continue;
      StmBlockTrace trace;
      trace.passes = level > 0 ? 2 : 1;
      trace.entries = static_cast<u32>(block.size());
      trace.fill = static_cast<u32>(traces.runs.size());
      std::fill(per_column.begin(), per_column.end(), u16{0});
      u32 row = hism.section();  // rows are < s, so no run yet
      for (const BlockPos& pos : block.pos) {
        if (pos.row == row) {
          ++traces.runs.back().count;
        } else {
          row = pos.row;
          traces.runs.push_back({pos.row, 1});
        }
        ++per_column[pos.col];
      }
      trace.drain = static_cast<u32>(traces.runs.size());
      for (u32 col = 0; col < per_column.size(); ++col) {
        if (per_column[col] > 0) traces.runs.push_back({static_cast<u16>(col), per_column[col]});
      }
      trace.end = static_cast<u32>(traces.runs.size());
      traces.blocks.push_back(trace);
    }
  }
  return traces;
}

UtilizationBreakdown stm_utilization(const StmTraceSet& traces, const StmConfig& config) {
  StmConfig stm_config = config;
  stm_config.section = traces.section;
  check_stm_config(stm_config);

  UtilizationBreakdown breakdown;
  for (const StmBlockTrace& block : traces.blocks) {
    const u32 fill = stream_cycles(traces.fill_runs(block), stm_config);
    const u32 drain = stm_config.skip_empty_lines
                          ? stream_cycles(traces.drain_runs(block), stm_config)
                          : grouped_drain_cycles(traces.drain_runs(block), stm_config);
    const u64 pass_cycles = static_cast<u64>(fill) + drain +
                            stm_config.fill_pipeline_cycles +
                            stm_config.drain_pipeline_cycles;
    breakdown.transfers += static_cast<u64>(block.passes) * 2 * block.entries;
    breakdown.cycles += block.passes * pass_cycles;
    breakdown.block_passes += block.passes;
  }
  if (breakdown.cycles > 0) {
    breakdown.utilization =
        static_cast<double>(breakdown.transfers) /
        (static_cast<double>(breakdown.cycles) * static_cast<double>(config.bandwidth));
  }
  return breakdown;
}

}  // namespace smtu::kernels
