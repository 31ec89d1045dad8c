// Structured execution tracing: the machine's per-instruction records kept
// in order, with a text table and timeline renderer. Attach an
// ExecutionTrace to a Machine to see *why* a kernel spends its cycles —
// which unit each instruction occupied, how chaining overlapped producers
// and consumers, where the pipeline drained.
#pragma once

#include <ostream>
#include <vector>

#include "vsim/profiler.hpp"

namespace smtu::vsim {

// The renderings' unit tracks, top to bottom; a track's index is its
// Chrome trace tid.
struct UnitTrack {
  ExecUnit unit;
  const char* name;
  char glyph;  // print_timeline's lane letter
};
inline constexpr UnitTrack kUnitTracks[] = {{ExecUnit::kScalar, "scalar", 'S'},
                                            {ExecUnit::kVMem, "vmem", 'M'},
                                            {ExecUnit::kVAlu, "valu", 'A'},
                                            {ExecUnit::kStm, "stm", 'T'}};

// The index in kUnitTracks of the track an opcode's unit (op_unit) is
// drawn on.
constexpr usize unit_track(Op op) {
  usize track = 0;
  while (kUnitTracks[track].unit != op_unit(op)) ++track;
  return track;
}

class ExecutionTrace {
 public:
  // Records at most `capacity` events; later ones are counted but dropped.
  explicit ExecutionTrace(usize capacity = 4096) : capacity_(capacity) {}

  void record(const InstRecord& record);
  void clear();

  const std::vector<InstRecord>& events() const { return events_; }
  usize capacity() const { return capacity_; }
  u64 dropped() const { return dropped_; }

  // One line per event: pc, mnemonic, unit, issue/start/first/last columns.
  void print_table(std::ostream& out) const;

  // ASCII timeline: each event's busy interval drawn over a scaled cycle
  // axis, labelled with its unit track's glyph. `width` columns of axis.
  void print_timeline(std::ostream& out, usize width = 72) const;

 private:
  usize capacity_;
  std::vector<InstRecord> events_;
  u64 dropped_ = 0;
};

}  // namespace smtu::vsim
