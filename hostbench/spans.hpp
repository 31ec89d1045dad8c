// Host-time spans for the traced run of the benchmark.
//
// The benchmark records a span around each of its own calls into a library
// layer (the span name is the layer, e.g. "kernels.hism"). Spans nest on the
// calling thread, are kept in memory, and are written out once at the end in
// the Chrome trace-event format of docs/TRACE.md (host spans as pid 1000,
// category "host"). A span's self time is its duration minus the time its
// child spans cover, so the self times inside one round sum to the round.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Opens a span named `name` (a string literal) under the innermost open
  // span and returns its id; end(id) closes it. Spans close in LIFO order.
  int begin(const char* name);
  void end(int id);

  std::size_t size() const { return spans_.size(); }

  // Self seconds per span name over the spans recorded since index `first`
  // (one round: its root span and everything under it).
  std::map<std::string, double> self_seconds(std::size_t first) const;

  // The Chrome trace-event document: one complete ("X") event per span and
  // the key/value pairs of `metadata` under "otherData".
  void write_chrome_trace(std::ostream& out, const std::string& process_name,
                          const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  struct Record {
    const char* name;
    double begin_us;
    double end_us;
    int parent;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

// The process-wide recorder the Span guards write to.
SpanRecorder& recorder();

// Records one span for its lifetime when the recorder is enabled; otherwise
// costs one branch.
class Span {
 public:
  explicit Span(const char* name) : id_(recorder().enabled() ? recorder().begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) recorder().end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

}  // namespace hostbench
