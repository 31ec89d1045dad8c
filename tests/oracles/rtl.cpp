#include "rtl.hpp"

#include "support/assert.hpp"

namespace smtu {

StmRtl::StmRtl(const StmConfig& config) : config_(config), grid_(config.section) {
  SMTU_CHECK_MSG(config.fill_pipeline_cycles == 3 && config.drain_pipeline_cycles == 3,
                 "the RTL model implements the paper's 3-stage pipelines");
  SMTU_CHECK_MSG(config.skip_empty_lines, "the RTL model assumes per-line occupancy summaries");
}

u32 StmRtl::accept_window(std::span<const StmEntry> pending) {
  // Same greedy policy as the schedule engine: up to B elements from the
  // stream head, all within a window of L lines (consecutive under the
  // strict rule).
  u32 taken = 0;
  const u32 anchor = pending.front().row;
  u32 distinct = 0;
  i32 last_row = -1;
  while (taken < pending.size() && taken < config_.bandwidth) {
    const u32 row = pending[taken].row;
    if (config_.strict_consecutive_lines &&
        (row < anchor || row >= anchor + config_.lines)) {
      break;
    }
    if (static_cast<i32>(row) != last_row) {
      if (distinct == config_.lines) break;
      ++distinct;
      last_row = static_cast<i32>(row);
    }
    ++taken;
  }
  return taken;
}

u32 StmRtl::offer(std::span<const StmEntry> pending) {
  SMTU_CHECK_MSG(!draining_, "offer() is a fill-direction operation");
  if (pending.empty()) return 0;
  SMTU_CHECK_MSG(!latch_valid_, "one offer() per cycle; call step() first");
  const u32 taken = accept_window(pending);
  latch_.items.assign(pending.begin(), pending.begin() + taken);
  latch_valid_ = true;
  accepted_ += taken;
  return taken;
}

std::optional<StmRtl::Bundle> StmRtl::extract_next() {
  if (extracted_ >= to_extract_) return std::nullopt;
  Bundle bundle;
  const u32 s = config_.section;
  u32 budget = config_.bandwidth;

  u32 anchor = 0;
  while (anchor < s && grid_.col_count(anchor) == 0) ++anchor;
  SMTU_CHECK(anchor < s);

  u32 distinct = 0;
  for (u32 col = anchor; col < s && budget > 0; ++col) {
    if (grid_.col_count(col) == 0) continue;
    if (config_.strict_consecutive_lines) {
      if (col >= anchor + config_.lines) break;
    } else if (distinct == config_.lines) {
      break;
    }
    ++distinct;
    for (u32 row = 0; row < s && budget > 0; ++row) {
      if (!grid_.occupied(row, col)) continue;
      bundle.items.push_back(
          {static_cast<u8>(col), static_cast<u8>(row), grid_.value_bits(row, col)});
      grid_.erase(row, col);
      --budget;
    }
  }
  extracted_ += bundle.items.size();
  return bundle;
}

void StmRtl::begin_drain() {
  SMTU_CHECK_MSG(pipeline_empty(), "fill pipeline must drain before the read phase (§III)");
  draining_ = true;
  to_extract_ = grid_.occupancy();
}

void StmRtl::step(std::vector<StmEntry>* out) {
  // Retire the oldest stage.
  if (stage_[2].has_value()) {
    if (draining_) {
      SMTU_CHECK_MSG(out != nullptr, "drain output requires a sink");
      out->insert(out->end(), stage_[2]->items.begin(), stage_[2]->items.end());
      delivered_ += stage_[2]->items.size();
    } else {
      for (const StmEntry& e : stage_[2]->items) grid_.insert(e.row, e.col, e.value_bits);
      committed_ += stage_[2]->items.size();
    }
  }
  // Shift the pipeline.
  stage_[2] = std::move(stage_[1]);
  stage_[1] = std::move(stage_[0]);
  if (draining_) {
    auto next = extract_next();
    if (next.has_value() && !next->items.empty()) {
      stage_[0] = std::move(next);
    } else {
      stage_[0].reset();
    }
  } else if (latch_valid_) {
    stage_[0] = std::move(latch_);
    latch_ = {};
    latch_valid_ = false;
  } else {
    stage_[0].reset();
  }
  ++cycle_;
}

bool StmRtl::pipeline_empty() const {
  return !latch_valid_ && !stage_[0].has_value() && !stage_[1].has_value() &&
         !stage_[2].has_value();
}

bool StmRtl::drain_finished() const {
  return draining_ && extracted_ == to_extract_ && pipeline_empty();
}

StmRtl::Result StmRtl::run_block(std::span<const StmEntry> entries,
                                 const StmConfig& config) {
  StmRtl rtl(config);
  Result result;

  usize index = 0;
  while (index < entries.size() || !rtl.pipeline_empty()) {
    if (index < entries.size()) {
      const u32 taken = rtl.offer(entries.subspan(index));
      index += taken;
      if (taken > 0) ++result.fill_cycles;
    }
    rtl.step();
  }

  rtl.begin_drain();
  while (!rtl.drain_finished()) {
    const usize before = rtl.extracted_;
    rtl.step(&result.transposed);
    if (rtl.extracted_ > before) ++result.drain_cycles;
  }
  result.cycles = rtl.now();
  SMTU_CHECK(rtl.delivered_ == rtl.extracted_);
  SMTU_CHECK(rtl.committed_ == rtl.accepted_);
  return result;
}

}  // namespace smtu
