#include "vsim/profiler.hpp"

#include <algorithm>
#include <map>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace smtu::vsim {

const char* stall_reason_name(StallReason reason) {
  switch (reason) {
    case StallReason::kRawHazard: return "raw_hazard";
    case StallReason::kVregBusy: return "vreg_busy";
    case StallReason::kChainingWait: return "chaining_wait";
    case StallReason::kMemPort: return "mem_port";
    case StallReason::kMemIndexedSerial: return "mem_indexed_serial";
    case StallReason::kStmBusy: return "stm_busy";
    case StallReason::kValuBusy: return "valu_busy";
    case StallReason::kScalarFetch: return "scalar_fetch";
    case StallReason::kIssueLimit: return "issue_limit";
    case StallReason::kMemBankContention: return "mem_bank_contention";
    case StallReason::kBarrierWait: return "barrier_wait";
    case StallReason::kCount: break;
  }
  SMTU_CHECK_MSG(false, "invalid StallReason");
  return "";
}

const char* busy_kind_name(BusyKind kind) {
  switch (kind) {
    case BusyKind::kScalar: return "scalar";
    case BusyKind::kVMemStream: return "vmem_stream";
    case BusyKind::kVMemIndexed: return "vmem_indexed";
    case BusyKind::kVAlu: return "valu";
    case BusyKind::kStm: return "stm";
    case BusyKind::kCount: break;
  }
  SMTU_CHECK_MSG(false, "invalid BusyKind");
  return "";
}

void PerfCounters::reset() { *this = PerfCounters(); }

void PerfCounters::begin_run(const Program& program) {
  if (per_pc_.empty()) {
    per_pc_.assign(program.size(), {});
    pc_line_.resize(program.size());
    pc_region_.assign(program.size(), -1);
    for (usize pc = 0; pc < program.size(); ++pc) {
      pc_line_[pc] = program.instructions[pc].source_line;
    }
    for (const ProfileRegion& region : program.regions) {
      const i32 index = static_cast<i32>(region_names_.size());
      region_names_.push_back(region.name);
      for (usize pc = region.begin; pc < region.end && pc < program.size(); ++pc) {
        pc_region_[pc] = index;
      }
    }
    line_text_ = program.source_lines;
    return;
  }
  // Accumulating a second run: it must be the same program, or the per-pc
  // tables would silently mix unrelated code.
  SMTU_CHECK_MSG(per_pc_.size() == program.size(),
                 "PerfCounters reused across different programs (call reset())");
}

void PerfCounters::record(const InstRecord& record) {
  SMTU_CHECK(record.watermark_after >= record.watermark_before);
  const Cycle increment = record.watermark_after - record.watermark_before;
  // A barrier's record runs from its issue to its release; its cycles count
  // from the release, where the core resumes.
  const Cycle start = record.op == Op::kBarrier ? record.last : record.start;
  // Two ways an instruction's increment can be waiting rather than working:
  //   * dead time — its start lies beyond everything that has completed
  //     (the gap from the old watermark to the start), e.g. the fetch
  //     bubble after a taken branch;
  //   * constraint delay — its start was pushed past the unconstrained
  //     issue point by the binding hazard/resource, even if other work
  //     overlapped the wait. The watermark increment *caused* by the
  //     delayed instruction is what the constraint cost end to end.
  // The wait part is the larger of the two, clamped to the increment so
  // the buckets still telescope to the exact cycle count.
  const Cycle bound = std::min(start, record.watermark_after);
  const Cycle dead = bound > record.watermark_before ? bound - record.watermark_before : 0;
  const Cycle delay = start > record.unblocked ? start - record.unblocked : 0;
  const Cycle wait = std::min(increment, std::max(dead, delay));
  const Cycle busy = increment - wait;
  const usize kind = static_cast<usize>(busy_kind_of(record.op));

  attributed_cycles_ += increment;
  stall_cycles_[static_cast<usize>(record.wait)] += wait;
  busy_cycles_[kind] += busy;

  OpCounters& op = ops_[static_cast<usize>(record.op)];
  ++op.issued;
  ++op.retired;
  op.elements += record.vl;
  op.busy_cycles += busy;
  op.stall_cycles += wait;

  FuCounters& fu = fus_[kind];
  ++fu.instructions;
  fu.occupancy_cycles += record.occupancy;

  if (record.pc < per_pc_.size()) {
    PcCounters& pc = per_pc_[record.pc];
    ++pc.issued;
    pc.busy_cycles += busy;
    pc.stall_cycles += wait;
    pc.stalls[static_cast<usize>(record.wait)] += wait;
  }
}

void PerfCounters::end_run(Cycle run_cycles) {
  ++runs_;
  total_cycles_ += run_cycles;
  SMTU_CHECK_MSG(attributed_cycles_ == total_cycles_,
                 "profiler cycle-conservation invariant violated: attributed " +
                     std::to_string(attributed_cycles_) + " != total " +
                     std::to_string(total_cycles_));
}

std::vector<PerfCounters::LineCounters> PerfCounters::line_rollup() const {
  std::vector<LineCounters> lines;
  // pc -> line is monotone only per region of straight-line code; aggregate
  // through a map keyed by line number for a deterministic ascending order.
  std::map<u32, LineCounters> by_line;
  for (usize pc = 0; pc < per_pc_.size(); ++pc) {
    const PcCounters& counters = per_pc_[pc];
    if (counters.issued == 0) continue;
    LineCounters& line = by_line[pc_line_[pc]];
    line.line = pc_line_[pc];
    if (line.text.empty() && pc_line_[pc] < line_text_.size()) {
      line.text = line_text_[pc_line_[pc]];
    }
    if (line.region.empty() && pc_region_[pc] >= 0) {
      line.region = region_names_[static_cast<usize>(pc_region_[pc])];
    }
    line.issued += counters.issued;
    line.busy_cycles += counters.busy_cycles;
    line.stall_cycles += counters.stall_cycles;
    for (usize reason = 0; reason < kStallReasonCount; ++reason) {
      line.stalls[reason] += counters.stalls[reason];
    }
  }
  lines.reserve(by_line.size());
  for (auto& [line_number, counters] : by_line) lines.push_back(std::move(counters));
  return lines;
}

std::vector<PerfCounters::RegionCounters> PerfCounters::region_rollup() const {
  // One rollup per distinct region *name*, in order of first static
  // appearance (a name opened twice — e.g. around an excluded sub-range —
  // aggregates into one entry).
  std::vector<RegionCounters> regions;
  std::map<std::string, usize> index_of;
  for (const std::string& name : region_names_) {
    if (index_of.count(name) > 0) continue;
    index_of.emplace(name, regions.size());
    regions.push_back({name, 0, 0, 0});
  }
  for (usize pc = 0; pc < per_pc_.size(); ++pc) {
    if (pc_region_[pc] < 0) continue;
    const PcCounters& counters = per_pc_[pc];
    RegionCounters& region =
        regions[index_of.at(region_names_[static_cast<usize>(pc_region_[pc])])];
    region.issued += counters.issued;
    region.busy_cycles += counters.busy_cycles;
    region.stall_cycles += counters.stall_cycles;
  }
  return regions;
}

std::string profile_summary(const PerfCounters& profile, usize top_lines) {
  const double total = static_cast<double>(std::max<Cycle>(1, profile.total_cycles()));
  std::string out;
  out += format("profile: %llu cycles over %llu run(s), every cycle attributed\n",
                static_cast<unsigned long long>(profile.total_cycles()),
                static_cast<unsigned long long>(profile.runs()));

  out += "\nbusy cycles by unit:\n";
  for (usize kind = 0; kind < kBusyKindCount; ++kind) {
    const u64 busy = profile.busy_cycles()[kind];
    const PerfCounters::FuCounters& fu = profile.fus()[kind];
    if (busy == 0 && fu.instructions == 0) continue;
    out += format("  %-14s %10llu (%5.1f%%)  occupancy %5.1f%%  %llu instr\n",
                  busy_kind_name(static_cast<BusyKind>(kind)),
                  static_cast<unsigned long long>(busy),
                  100.0 * static_cast<double>(busy) / total,
                  100.0 * static_cast<double>(fu.occupancy_cycles) / total,
                  static_cast<unsigned long long>(fu.instructions));
  }

  out += "\nstall cycles by reason:\n";
  for (usize reason = 0; reason < kStallReasonCount; ++reason) {
    const u64 stall = profile.stall_cycles()[reason];
    if (stall == 0) continue;
    out += format("  %-20s %10llu (%5.1f%%)\n",
                  stall_reason_name(static_cast<StallReason>(reason)),
                  static_cast<unsigned long long>(stall),
                  100.0 * static_cast<double>(stall) / total);
  }

  const auto regions = profile.region_rollup();
  if (!regions.empty()) {
    out += "\nregions (`;; profile:` markers):\n";
    for (const auto& region : regions) {
      const u64 cycles = region.busy_cycles + region.stall_cycles;
      out += format("  %-20s %10llu (%5.1f%%)  busy %llu  stall %llu\n",
                    region.name.c_str(), static_cast<unsigned long long>(cycles),
                    100.0 * static_cast<double>(cycles) / total,
                    static_cast<unsigned long long>(region.busy_cycles),
                    static_cast<unsigned long long>(region.stall_cycles));
    }
  }

  auto lines = profile.line_rollup();
  std::stable_sort(lines.begin(), lines.end(),
                   [](const PerfCounters::LineCounters& a,
                      const PerfCounters::LineCounters& b) {
                     return a.busy_cycles + a.stall_cycles > b.busy_cycles + b.stall_cycles;
                   });
  if (lines.size() > top_lines) lines.resize(top_lines);
  if (!lines.empty()) {
    out += format("\ntop %zu source lines by attributed cycles:\n", lines.size());
    for (const auto& line : lines) {
      const u64 cycles = line.busy_cycles + line.stall_cycles;
      out += format("  L%-5u %10llu (%5.1f%%)  %s\n", line.line,
                    static_cast<unsigned long long>(cycles),
                    100.0 * static_cast<double>(cycles) / total, line.text.c_str());
    }
  }
  return out;
}

}  // namespace smtu::vsim
