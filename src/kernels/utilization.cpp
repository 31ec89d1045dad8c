#include "kernels/utilization.hpp"

#include <algorithm>

#include "support/bits.hpp"

namespace smtu::kernels {
namespace {

// Drain cost without per-line occupancy bits: aligned groups of L lines are
// scanned in order, one cycle minimum even when empty, exactly as
// StmUnit::freeze_drain_schedule charges it. Returns the cumulative cycle
// at which the last entry moves (= BlockResult::read_cycles).
u32 grouped_drain_cycles(std::span<const u8> lines, const StmConfig& config) {
  u32 cumulative = 0;
  usize idx = 0;
  for (u32 group = 0; group < config.section; group += config.lines) {
    usize count = 0;
    while (idx + count < lines.size() && lines[idx + count] < group + config.lines) {
      ++count;
    }
    cumulative += std::max<u32>(1, static_cast<u32>(ceil_div(count, config.bandwidth)));
    idx += count;
    if (idx == lines.size()) break;
  }
  return cumulative;
}

}  // namespace

StmTraceSet stm_block_traces(const HismMatrix& hism) {
  StmTraceSet traces;
  traces.section = hism.section();
  // Drain order = the transpose read out row-major, i.e. the stored
  // positions sorted by column; only the column ids reach the timing, so a
  // per-column histogram gives the drain lines without a sort.
  std::vector<u32> per_column(hism.section());
  for (u32 level = 0; level < hism.num_levels(); ++level) {
    for (const BlockArray& block : hism.level(level)) {
      if (block.size() == 0) continue;
      StmBlockTrace trace;
      trace.passes = level > 0 ? 2 : 1;
      trace.fill_lines.reserve(block.size());
      std::fill(per_column.begin(), per_column.end(), 0u);
      for (usize i = 0; i < block.size(); ++i) {
        trace.fill_lines.push_back(block.pos[i].row);
        ++per_column[block.pos[i].col];
      }
      trace.drain_lines.reserve(block.size());
      for (u32 col = 0; col < per_column.size(); ++col) {
        trace.drain_lines.insert(trace.drain_lines.end(), per_column[col], static_cast<u8>(col));
      }
      traces.blocks.push_back(std::move(trace));
    }
  }
  return traces;
}

UtilizationBreakdown stm_utilization(const StmTraceSet& traces, const StmConfig& config) {
  StmConfig stm_config = config;
  stm_config.section = traces.section;

  UtilizationBreakdown breakdown;
  for (const StmBlockTrace& block : traces.blocks) {
    const u32 fill = stream_cycles(block.fill_lines, stm_config);
    const u32 drain = stm_config.skip_empty_lines
                          ? stream_cycles(block.drain_lines, stm_config)
                          : grouped_drain_cycles(block.drain_lines, stm_config);
    const u64 pass_cycles = static_cast<u64>(fill) + drain +
                            stm_config.fill_pipeline_cycles +
                            stm_config.drain_pipeline_cycles;
    breakdown.transfers += static_cast<u64>(block.passes) * 2 * block.fill_lines.size();
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
