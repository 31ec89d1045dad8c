#include "stm/unit.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace smtu {
namespace {

// Walks a stream of `count` entries tagged with their line id (read through
// `line_at(i)` so callers stream straight out of entry arrays without
// building a separate line-id buffer), calling per_entry(index, cycle) as
// each one moves, and returns the total cycle count. One cycle moves at most
// B entries, all within a window of L lines (consecutive indices under the
// strict rule, any L distinct lines otherwise). Templated so the
// counting-only path allocates nothing.
template <typename LineAt, typename PerEntry>
u32 stream_pass(usize count, LineAt line_at, const StmConfig& config, PerEntry per_entry) {
  u32 cycles = 0;
  usize i = 0;
  while (i < count) {
    u32 taken = 0;
    const u32 anchor = line_at(i);
    u32 distinct = 0;
    i32 last = -1;
    ++cycles;
    while (i < count && taken < config.bandwidth) {
      const u32 line = line_at(i);
      if (config.strict_consecutive_lines &&
          (line < anchor || line >= anchor + config.lines)) {
        break;
      }
      if (static_cast<i32>(line) != last) {
        if (distinct == config.lines) break;
        ++distinct;
        last = static_cast<i32>(line);
      }
      per_entry(i, cycles);
      ++taken;
      ++i;
    }
  }
  return cycles;
}

// Sorts transposed entries into drain order — (row, col) lexicographic —
// with two stable counting passes (LSD radix over the u8 col then row
// keys). Positions within a block are unique, so this produces exactly the
// order a comparator sort would; it replaces one because the comparator
// sort dominated whole-simulation profiles of transpose kernels.
void sort_drain_order(std::vector<StmEntry>& entries, std::vector<StmEntry>& scratch,
                      u32 section) {
  scratch.resize(entries.size());
  u32 counts[256];
  std::fill(counts, counts + section, 0u);
  for (const StmEntry& e : entries) counts[e.col]++;
  u32 sum = 0;
  for (u32 i = 0; i < section; ++i) {
    const u32 c = counts[i];
    counts[i] = sum;
    sum += c;
  }
  for (const StmEntry& e : entries) scratch[counts[e.col]++] = e;
  std::fill(counts, counts + section, 0u);
  for (const StmEntry& e : scratch) counts[e.row]++;
  sum = 0;
  for (u32 i = 0; i < section; ++i) {
    const u32 c = counts[i];
    counts[i] = sum;
    sum += c;
  }
  for (const StmEntry& e : scratch) entries[counts[e.row]++] = e;
}

}  // namespace

void check_stm_config(const StmConfig& config) {
  SMTU_CHECK_MSG(config.bandwidth >= 1, "buffer bandwidth must be positive");
  SMTU_CHECK_MSG(config.lines >= 1 && config.lines <= config.section,
                 "accessible lines must be in [1, section]");
}

u32 stream_cycles(std::span<const StmRun> runs, const StmConfig& config) {
  const u32 bandwidth = config.bandwidth;
  const u32 lines = config.lines;
  u32 cycles = 0;
  usize r = 0;
  u32 left = 0;  // entries of runs[r] still to move; 0 until runs[r] starts
  while (r < runs.size()) {
    if (left == 0) left = runs[r].count;
    // Cycles that start inside a run with >= B entries left take B of them.
    cycles += left / bandwidth;
    left %= bandwidth;
    if (left == 0) {
      ++r;
      continue;
    }
    // One cycle takes the run's last entries, then whole runs while they fit
    // in the cycle's remaining room, up to L runs in all, and under the
    // strict rule only lines in [anchor, anchor + L).
    ++cycles;
    u32 room = bandwidth - left;
    const u32 anchor = runs[r].line;
    const usize window_end = std::min(runs.size(), r + lines);
    left = 0;
    for (++r; r < window_end; ++r) {
      const u32 line = runs[r].line;
      if (config.strict_consecutive_lines && (line < anchor || line >= anchor + lines)) break;
      if (runs[r].count >= room) {
        // The run fills the cycle; what it has left starts the next one.
        left = runs[r].count - room;
        if (left == 0) ++r;
        break;
      }
      room -= runs[r].count;
    }
  }
  return cycles;
}

u32 grouped_drain_cycles(std::span<const StmRun> runs, const StmConfig& config) {
  u32 cumulative = 0;
  usize r = 0;
  for (u32 group = 0; group < config.section; group += config.lines) {
    u32 count = 0;
    while (r < runs.size() && runs[r].line < group + config.lines) count += runs[r++].count;
    cumulative += std::max<u32>(1, static_cast<u32>(ceil_div(count, config.bandwidth)));
    if (r == runs.size()) break;
  }
  return cumulative;
}

StmUnit::StmUnit(const StmConfig& config) : config_(config) {
  check_stm_config(config);
  banks_.reserve(config.double_buffer ? 2 : 1);
  banks_.emplace_back(config.section);
  if (config.double_buffer) banks_.emplace_back(config.section);
}

void StmUnit::clear() {
  const u32 incoming = config_.double_buffer ? fill_bank_ ^ 1 : 0u;
  Bank& bank = banks_[incoming];
  SMTU_CHECK_MSG(bank.fully_drained(),
                 config_.double_buffer
                     ? "icm would clear a bank that still holds undrained elements"
                     : "icm would clear a bank that still holds undrained elements; a kernel "
                       "that fills one block while another drains needs the double-buffered "
                       "STM");
  bank.grid.clear();
  bank.filled.clear();
  bank.draining = false;
  bank.drain_entries.clear();
  bank.drain_cycle_of.clear();
  bank.drain_cursor = 0;
  fill_bank_ = incoming;
}

u32 StmUnit::write_batch(std::span<const StmEntry> entries) {
  Bank& bank = banks_[fill_bank_];
  SMTU_CHECK_MSG(!bank.draining,
                 "cannot fill the s x s memory while draining it; issue icm first");
  for (const StmEntry& e : entries) {
    bank.grid.insert(e.row, e.col, e.value_bits);
    bank.filled.push_back(e);
  }
  const u32 cycles = stream_pass(
      entries.size(), [&](usize i) { return entries[i].row; }, config_, [](usize, u32) {});
  stats_.elements_in += entries.size();
  stats_.write_cycles += cycles;
  ++stats_.write_batches;
  return cycles;
}

void StmUnit::freeze_drain_schedule(Bank& bank) {
  SMTU_CHECK(!bank.draining);
  bank.draining = true;
  bank.drain_cursor = 0;
  stats_.blocks++;

  // Column-wise scan of the stored block = row-major order of the transpose.
  // Built by sorting the filled entries rather than scanning all s^2 cells,
  // which matters when blocks are sparse.
  bank.drain_entries.clear();
  bank.drain_entries.reserve(bank.filled.size());
  for (const StmEntry& e : bank.filled) {
    bank.drain_entries.push_back({e.col, e.row, e.value_bits});
  }
  sort_drain_order(bank.drain_entries, sort_scratch_, config_.section);
  const auto drain_line_at = [&](usize i) { return bank.drain_entries[i].row; };
  const u32 s = config_.section;

  if (config_.skip_empty_lines) {
    bank.drain_cycle_of.assign(bank.drain_entries.size(), 0);
    stream_pass(bank.drain_entries.size(), drain_line_at, config_,
                [&](usize i, u32 cycle) { bank.drain_cycle_of[i] = cycle; });
  } else {
    // Without per-line occupancy summaries the drain scans aligned groups of
    // L consecutive columns, paying one cycle even for an empty group.
    bank.drain_cycle_of.assign(bank.drain_entries.size(), 0);
    u32 cumulative = 0;
    usize idx = 0;
    for (u32 group = 0; group < s; group += config_.lines) {
      usize count = 0;
      while (idx + count < bank.drain_entries.size() &&
             drain_line_at(idx + count) < group + config_.lines) {
        ++count;
      }
      const u32 group_cycles =
          std::max<u32>(1, static_cast<u32>(ceil_div(count, config_.bandwidth)));
      cumulative += group_cycles;
      for (usize k = 0; k < count; ++k) bank.drain_cycle_of[idx + k] = cumulative;
      idx += count;
    }
  }
}

u32 StmUnit::peek_drain_bank() const {
  // Oldest bank with undrained content: in double-buffer mode the non-fill
  // bank, unless it is exhausted (the final block drains from the fill
  // side); single-buffer mode only has bank 0.
  if (config_.double_buffer && banks_[fill_bank_ ^ 1].undrained() > 0) {
    return fill_bank_ ^ 1;
  }
  return fill_bank_;
}

StmUnit::Bank& StmUnit::drain_bank_for_read() { return banks_[peek_drain_bank()]; }

StmUnit::ReadBatch StmUnit::read_batch(u32 count) {
  ReadBatch batch;
  Bank& bank = drain_bank_for_read();
  batch.bank = static_cast<u32>(&bank - banks_.data());
  if (!bank.draining) freeze_drain_schedule(bank);
  if (count == 0) return batch;
  SMTU_CHECK_MSG(bank.drain_cursor + count <= bank.drain_entries.size(),
                 "draining more elements than the s x s memory holds");
  const u32 before = bank.drain_cursor == 0 ? 0 : bank.drain_cycle_of[bank.drain_cursor - 1];
  const u32 after = bank.drain_cycle_of[bank.drain_cursor + count - 1];
  batch.cycles = after - before;
  batch.entries = std::span<const StmEntry>(bank.drain_entries).subspan(bank.drain_cursor, count);
  bank.drain_cursor += count;
  stats_.elements_out += count;
  stats_.read_cycles += batch.cycles;
  ++stats_.read_batches;
  return batch;
}

StmUnit::BlockResult StmUnit::transpose_block(std::span<const StmEntry> entries) {
  clear();
  BlockResult result;
  result.write_cycles = write_batch(entries);
  const ReadBatch drained = read_batch(static_cast<u32>(entries.size()));
  result.read_cycles = drained.cycles;
  result.transposed.assign(drained.entries.begin(), drained.entries.end());
  result.cycles = static_cast<u64>(result.write_cycles) + result.read_cycles +
                  config_.fill_pipeline_cycles + config_.drain_pipeline_cycles;
  return result;
}

}  // namespace smtu
