#include "microsim.hpp"

#include "locator.hpp"
#include "stm/sxs_memory.hpp"
#include "support/assert.hpp"

namespace smtu {

MicrosimResult microsim_drain(std::span<const StmEntry> entries, const StmConfig& config) {
  SMTU_CHECK_MSG(config.skip_empty_lines,
                 "the micro-simulator models the occupancy-summary variant only");
  const u32 s = config.section;
  SxsMemory grid(s);
  for (const StmEntry& e : entries) grid.insert(e.row, e.col, e.value_bits);

  MicrosimResult result;
  result.drained.reserve(entries.size());

  usize remaining = entries.size();
  while (remaining > 0) {
    // One I/O-buffer cycle: the control logic selects a line window and the
    // locator bank extracts up to B non-zeros from it.
    ++result.cycles;
    u32 budget = config.bandwidth;

    // Anchor at the first column that still holds non-zeros.
    u32 anchor = 0;
    while (anchor < s && grid.col_count(anchor) == 0) ++anchor;
    SMTU_CHECK(anchor < s);

    u32 distinct_lines = 0;
    for (u32 col = anchor; col < s && budget > 0; ++col) {
      if (grid.col_count(col) == 0) continue;
      if (config.strict_consecutive_lines) {
        if (col >= anchor + config.lines) break;
      } else {
        if (distinct_lines == config.lines) break;
      }
      ++distinct_lines;

      // The Non-zero Locator extracts the first `budget` ones from this
      // column's indicator line; when fewer remain, its overflow output
      // tells the control logic to continue with the next window line.
      const LocatorResult located = locate_first_ones(grid.col_indicators(col), budget);
      for (const u32 row : located.positions) {
        result.drained.push_back(
            {static_cast<u8>(col), static_cast<u8>(row), grid.value_bits(row, col)});
        // "The located non-zeros are set to zero" (§III).
        grid.erase(row, col);
      }
      budget -= static_cast<u32>(located.positions.size());
      remaining -= located.positions.size();
    }
  }
  return result;
}

u32 microsim_fill_cycles(std::span<const StmEntry> entries, const StmConfig& config) {
  u32 cycles = 0;
  usize i = 0;
  while (i < entries.size()) {
    ++cycles;
    u32 budget = config.bandwidth;
    const u32 anchor = entries[i].row;
    u32 distinct_lines = 0;
    i32 last_row = -1;
    while (i < entries.size() && budget > 0) {
      const u32 row = entries[i].row;
      if (config.strict_consecutive_lines) {
        if (row < anchor || row >= anchor + config.lines) break;
      }
      if (static_cast<i32>(row) != last_row) {
        if (distinct_lines == config.lines) break;
        ++distinct_lines;
        last_row = static_cast<i32>(row);
      }
      ++i;
      --budget;
    }
  }
  return cycles;
}

}  // namespace smtu
