#include "vsim/trace.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace smtu::vsim {

void ExecutionTrace::record(const InstRecord& record) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(record);
}

void ExecutionTrace::clear() {
  events_.clear();
  dropped_ = 0;
}

void ExecutionTrace::print_table(std::ostream& out) const {
  out << format("%-5s %-11s %-6s %4s %8s %8s %8s %8s\n", "pc", "op", "unit", "vl", "issue",
                "start", "first", "last");
  for (const InstRecord& e : events_) {
    out << format("%-5zu %-11s %-6s %4u %8llu %8llu %8llu %8llu\n", e.pc, op_name(e.op),
                  kUnitTracks[unit_track(e.op)].name, e.vl,
                  static_cast<unsigned long long>(e.issue),
                  static_cast<unsigned long long>(e.start),
                  static_cast<unsigned long long>(e.first),
                  static_cast<unsigned long long>(e.last));
  }
  if (dropped_ > 0) {
    out << format("(+%llu events beyond capacity)\n",
                  static_cast<unsigned long long>(dropped_));
  }
}

void ExecutionTrace::print_timeline(std::ostream& out, usize width) const {
  if (events_.empty()) {
    out << "(empty trace)\n";
    if (dropped_ > 0) {
      out << format("(+%llu events beyond capacity)\n",
                    static_cast<unsigned long long>(dropped_));
    }
    return;
  }
  Cycle horizon = 1;
  for (const InstRecord& e : events_) horizon = std::max(horizon, e.last);
  const double scale = static_cast<double>(width) / static_cast<double>(horizon + 1);

  out << format("cycles 0 .. %llu, one column ~ %.1f cycles\n",
                static_cast<unsigned long long>(horizon), 1.0 / scale);
  for (const InstRecord& e : events_) {
    const usize begin = static_cast<usize>(static_cast<double>(e.start) * scale);
    const usize end = std::max(
        begin + 1, static_cast<usize>(static_cast<double>(e.last) * scale));
    std::string lane(width, ' ');
    for (usize i = begin; i < std::min(end, width); ++i) {
      lane[i] = kUnitTracks[unit_track(e.op)].glyph;
    }
    out << format("%-11s |%s|\n", op_name(e.op), lane.c_str());
  }
  if (dropped_ > 0) {
    out << format("(+%llu events beyond capacity)\n",
                  static_cast<unsigned long long>(dropped_));
  }
}

}  // namespace smtu::vsim
