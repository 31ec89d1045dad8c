#include "spans.hpp"

#include "support/assert.hpp"
#include "support/json.hpp"

namespace hostbench {

int SpanRecorder::begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Record{name, now_us(), 0.0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  SMTU_CHECK_MSG(!open_.empty() && open_.back() == id, "host spans must close in LIFO order");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

std::map<std::string, double> SpanRecorder::self_seconds(std::size_t first) const {
  std::vector<double> child_us(spans_.size() - first, 0.0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    if (parent >= static_cast<int>(first)) {
      child_us[static_cast<std::size_t>(parent) - first] += spans_[i].end_us - spans_[i].begin_us;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Record& span = spans_[i];
    self[span.name] += (span.end_us - span.begin_us - child_us[i - first]) * 1e-6;
  }
  return self;
}

void SpanRecorder::write_chrome_trace(
    std::ostream& out, const std::string& process_name,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  constexpr smtu::u64 kHostPid = 1000;  // the host process of docs/TRACE.md
  smtu::JsonWriter json(out);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  json.begin_object();
  json.key("name");
  json.value("process_name");
  json.key("ph");
  json.value("M");
  json.key("pid");
  json.value(kHostPid);
  json.key("args");
  json.begin_object();
  json.key("name");
  json.value(process_name);
  json.end_object();
  json.end_object();
  for (const Record& span : spans_) {
    json.begin_object();
    json.key("name");
    json.value(span.name);
    json.key("cat");
    json.value("host");
    json.key("ph");
    json.value("X");
    json.key("ts");
    json.value(span.begin_us);
    json.key("dur");
    json.value(span.end_us - span.begin_us);
    json.key("pid");
    json.value(kHostPid);
    json.key("tid");
    json.value(smtu::u64{0});
    json.end_object();
  }
  json.end_array();
  json.key("displayTimeUnit");
  json.value("ms");
  json.key("otherData");
  json.begin_object();
  for (const auto& [key, value] : metadata) {
    json.key(key);
    json.value(value);
  }
  json.end_object();
  json.end_object();
  out << '\n';
}

SpanRecorder& recorder() {
  static SpanRecorder instance;
  return instance;
}

}  // namespace hostbench
