// Console table and CSV emitters used by the benchmark harness so every
// figure-reproduction binary prints the paper's series in a uniform layout.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "support/types.hpp"

namespace smtu {

// Monospace table with a header row; columns are right-aligned except the
// first (typically a matrix name).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  void print(std::ostream& out) const;
  // GitHub-flavored Markdown rendering (used by the report generator).
  void print_markdown(std::ostream& out) const;
  std::string to_string() const;

  usize rows() const { return cells_.size(); }
  usize columns() const { return header_.size(); }
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::string>& row(usize index) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> cells_;
};

// Minimal CSV writer (RFC-4180 quoting) so bench output can be re-plotted.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void write_row(const std::vector<std::string>& cells);

 private:
  static std::string escape(const std::string& cell);

  std::ostream& out_;
};

}  // namespace smtu
