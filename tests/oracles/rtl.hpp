// Cycle-stepped, register-transfer-level model of the STM datapath of
// Fig. 3. Where stm/unit.cpp computes phase durations with a schedule
// engine (fast, used by the machine) and oracles/microsim.cpp re-derives them
// with per-cycle locator calls, this model steps the actual *pipeline*:
//
//   fill:   IO buffer -> Non-zero Locator scatter -> row-buffer commit
//   drain:  column fetch/locate -> gather -> IO buffer out
//
// Three explicit stage registers per direction, so the paper's §IV-A claim
// — "the write and read phases can be pipelined in three stages", giving
// the 6-cycle per-block penalty — is checked structurally: an element
// accepted at cycle t commits at t+3; the last output of a drain appears 3
// cycles after its extraction; back-to-back occupancy equals the schedule
// engine's cycle counts exactly.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "stm/unit.hpp"

namespace smtu {

class StmRtl {
 public:
  explicit StmRtl(const StmConfig& config);

  // ---- fill direction ----------------------------------------------------
  // Presents the next elements of the block stream; the unit accepts up to
  // B of them (respecting the line-window rule) into its IO buffer this
  // cycle and returns how many were taken. Call step() to advance.
  u32 offer(std::span<const StmEntry> pending);

  // ---- drain direction ---------------------------------------------------
  // Switches the unit to drain mode (fill pipeline must be empty).
  void begin_drain();

  // Advances one cycle; in drain mode, elements that completed the 3-stage
  // output path this cycle are appended to `out`.
  void step(std::vector<StmEntry>* out = nullptr);

  // True when every accepted element has been committed to the grid (fill)
  // or delivered (drain).
  bool pipeline_empty() const;
  bool drain_finished() const;

  Cycle now() const { return cycle_; }
  const SxsMemory& grid() const { return grid_; }

  // Convenience: runs a whole block through fill + drain, returning the
  // transposed elements and the total cycle count including both 3-cycle
  // pipeline tails (comparable to StmUnit::transpose_block).
  struct Result {
    std::vector<StmEntry> transposed;
    Cycle cycles = 0;
    Cycle fill_cycles = 0;   // IO-buffer accept cycles
    Cycle drain_cycles = 0;  // extraction cycles
  };
  static Result run_block(std::span<const StmEntry> entries, const StmConfig& config);

 private:
  struct Bundle {
    std::vector<StmEntry> items;  // elements moving together this cycle
  };

  u32 accept_window(std::span<const StmEntry> pending);
  std::optional<Bundle> extract_next();

  StmConfig config_;
  SxsMemory grid_;
  Cycle cycle_ = 0;
  bool draining_ = false;

  // Input latch (the IO buffer's accept slot) plus three pipeline stage
  // registers; index 0 = newest, 2 = about to retire.
  Bundle latch_;
  bool latch_valid_ = false;
  std::optional<Bundle> stage_[3];
  usize committed_ = 0;   // elements written into the grid (fill)
  usize accepted_ = 0;    // elements taken from the input stream
  usize extracted_ = 0;   // elements pulled from the grid (drain)
  usize delivered_ = 0;   // elements that left the output stage
  usize to_extract_ = 0;  // grid occupancy at begin_drain()
};

}  // namespace smtu
