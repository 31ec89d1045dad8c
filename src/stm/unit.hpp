// The Sparse matrix Transposition Mechanism (STM) — functional model plus
// cycle-accurate timing of the write (row-wise fill) and read (column-wise
// drain) phases.
//
// Timing rules (§III, §IV-C of the paper):
//  * The I/O buffer moves at most B elements per cycle (B = buffer
//    bandwidth). All elements moved in one cycle must belong to the same
//    line, or — in the extended mechanism — to at most L *consecutive*
//    lines (L = number of accessible lines).
//  * Filling is pipelined in 3 stages (I/O buffer -> non-zero locator ->
//    s x s row write); draining likewise. The last elements of a block
//    therefore pay a 3-cycle fill tail and a 3-cycle drain tail: the paper's
//    6-cycle per-block penalty.
//  * The s x s memory must be completely filled before it is read back, so
//    the two phases of one block never overlap.
//
// With StmConfig::double_buffer the unit holds two s x s memories in
// ping-pong: `icm` switches the fill side to the other bank (which must be
// fully drained) and clears it; reads drain the oldest bank that still
// holds undrained content. A software-pipelined kernel can then overlap
// block k's drain with block k+1's fill (extension E4).
#pragma once

#include <span>
#include <vector>

#include "stm/sxs_memory.hpp"
#include "support/types.hpp"

namespace smtu {

struct StmConfig {
  u32 section = 64;     // s
  u32 bandwidth = 4;    // B: max elements the I/O buffer moves per cycle
  u32 lines = 4;        // L: lines accessible in one cycle
  // Paper rule: the up-to-L lines touched in one cycle must have consecutive
  // indices. Relaxing this (any L lines) is the Ablation A1 variant.
  bool strict_consecutive_lines = true;
  // Pipeline depths (3 + 3 = the paper's 6-cycle block penalty).
  u32 fill_pipeline_cycles = 3;
  u32 drain_pipeline_cycles = 3;
  // Whether a line with no non-zeros can be skipped without spending a
  // cycle (per-line occupancy OR is cheap hardware); turning this off makes
  // the drain scan all s/L line groups.
  bool skip_empty_lines = true;
  // Extension E4: a second s x s memory in ping-pong. Affects which bank
  // each operation touches and, in the machine's timing model, lets a
  // software-pipelined kernel overlap a drain with the next fill.
  bool double_buffer = false;
};

// One element moving through the unit: position within the block + payload.
struct StmEntry {
  u8 row = 0;
  u8 col = 0;
  u32 value_bits = 0;

  friend bool operator==(const StmEntry&, const StmEntry&) = default;
};

class StmUnit {
 public:
  explicit StmUnit(const StmConfig& config);

  const StmConfig& config() const { return config_; }
  // The current fill-side s x s memory.
  const SxsMemory& grid() const { return banks_[fill_bank_].grid; }
  u32 fill_bank() const { return fill_bank_; }

  // `icm`: switches to the other bank (double-buffer mode) and clears it.
  // The incoming bank must hold no undrained elements.
  void clear();

  // Write phase: scatters `entries` into the fill bank and returns the
  // number of I/O-buffer cycles the batch consumes (pipeline tails are
  // charged by the caller / `transpose_block`).
  u32 write_batch(std::span<const StmEntry> entries);

  struct ReadBatch {
    // Transposed coordinates (row/col swapped). A view into the unit's
    // frozen drain buffer — no per-batch allocation; valid until the drained
    // bank is cleared (`icm`). Copy before the next clear if needed longer.
    std::span<const StmEntry> entries;
    u32 cycles = 0;
    u32 bank = 0;  // which bank drained (for per-bank timing in the machine)
  };

  // Read phase: drains the next `count` elements — in column-wise order of
  // the stored block, i.e. row-major order of the transpose — from the
  // oldest bank that still holds undrained content.
  ReadBatch read_batch(u32 count);

  // The bank the next read_batch will drain (used by the machine's
  // per-bank timing before functionally executing the instruction).
  u32 peek_drain_bank() const;

  struct BlockResult {
    std::vector<StmEntry> transposed;
    u64 cycles = 0;       // fill + drain + both pipeline tails
    u32 write_cycles = 0; // I/O-buffer cycles of the fill phase
    u32 read_cycles = 0;  // I/O-buffer cycles of the drain phase
  };

  // Convenience: transposes one whole s^2-block and accounts full timing.
  BlockResult transpose_block(std::span<const StmEntry> entries);

  // Lifetime statistics for utilization studies.
  struct Stats {
    u64 blocks = 0;
    u64 elements_in = 0;
    u64 elements_out = 0;
    u64 write_cycles = 0;
    u64 read_cycles = 0;
    // Batch counts expose how often the unit was driven, so occupancy can
    // be separated into per-batch startup vs. streaming time.
    u64 write_batches = 0;
    u64 read_batches = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Bank {
    explicit Bank(u32 section) : grid(section) {}

    SxsMemory grid;
    std::vector<StmEntry> filled;        // arrival order since last clear
    bool draining = false;
    std::vector<StmEntry> drain_entries; // transposed coords, drain order
    std::vector<u32> drain_cycle_of;     // cumulative cycles per entry
    usize drain_cursor = 0;

    bool fully_drained() const {
      return filled.empty() || (draining && drain_cursor == drain_entries.size());
    }
    u32 undrained() const {
      if (!draining) return static_cast<u32>(filled.size());
      return static_cast<u32>(drain_entries.size() - drain_cursor);
    }
  };

  void freeze_drain_schedule(Bank& bank);
  Bank& drain_bank_for_read();

  StmConfig config_;
  std::vector<Bank> banks_;
  u32 fill_bank_ = 0;
  Stats stats_;
  // Reused radix-sort buffer for freeze_drain_schedule, so the per-block
  // hot path performs no heap allocation after warm-up.
  std::vector<StmEntry> sort_scratch_;
};

// Aborts unless bandwidth >= 1 and lines is in [1, section]: with a B or L
// of 0 no entry could ever move. StmUnit's constructor and
// kernels::stm_utilization check this on entry.
void check_stm_config(const StmConfig& config);

// `count` consecutive entries of a stream on the same line: a row id when
// filling, a column id when draining. A line holds up to s = 256 entries,
// so the count does not fit in 8 bits.
struct StmRun {
  u16 line = 0;
  u16 count = 0;

  friend bool operator==(const StmRun&, const StmRun&) = default;
};

// StmUnit's timing rules over a stream given as its maximal runs (counts
// >= 1, neighbouring runs on different lines), for the trace-based timing
// in kernels/utilization. `config` must pass check_stm_config.
//
// stream_cycles is StmUnit's fill and skip_empty_lines drain rule: one cycle
// moves at most B entries from at most L runs, whose lines lie in
// [anchor, anchor + L) under the strict rule, where anchor is the line the
// cycle starts on. The relaxed rule counts runs, not distinct lines, so
// lines a, b, a are three. The walk charges the whole B-entry cycles inside
// a run with one division and then fills one partial cycle from the runs
// that follow, so it takes about one step per run where StmUnit takes one
// per entry, and returns the same count.
u32 stream_cycles(std::span<const StmRun> runs, const StmConfig& config);

// The drain without per-line occupancy bits (skip_empty_lines = false):
// aligned groups of L lines are scanned in order, one cycle minimum even
// when empty, exactly as StmUnit charges it. `runs` is in drain order
// (ascending lines). Returns the cycle on which the last entry moves
// (= StmUnit::BlockResult::read_cycles).
u32 grouped_drain_cycles(std::span<const StmRun> runs, const StmConfig& config);

}  // namespace smtu
