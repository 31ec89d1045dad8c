#include "support/table.hpp"

#include <algorithm>
#include <sstream>

#include "support/assert.hpp"

namespace smtu {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {
  SMTU_CHECK(!header_.empty());
}

const std::vector<std::string>& TextTable::row(usize index) const {
  SMTU_CHECK(index < cells_.size());
  return cells_[index];
}

void TextTable::add_row(std::vector<std::string> cells) {
  SMTU_CHECK_MSG(cells.size() == header_.size(), "row width must match header");
  cells_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& out) const {
  std::vector<usize> width(header_.size());
  for (usize c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : cells_) {
    for (usize c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }

  auto emit_row = [&](const std::vector<std::string>& row) {
    for (usize c = 0; c < row.size(); ++c) {
      if (c > 0) out << "  ";
      if (c == 0) {
        out << row[c] << std::string(width[c] - row[c].size(), ' ');
      } else {
        out << std::string(width[c] - row[c].size(), ' ') << row[c];
      }
    }
    out << '\n';
  };

  emit_row(header_);
  usize total = header_.size() > 1 ? 2 * (header_.size() - 1) : 0;
  for (const usize w : width) total += w;
  out << std::string(total, '-') << '\n';
  for (const auto& row : cells_) emit_row(row);
}

void TextTable::print_markdown(std::ostream& out) const {
  auto emit_row = [&](const std::vector<std::string>& cells) {
    out << '|';
    for (const std::string& cell : cells) out << ' ' << cell << " |";
    out << '\n';
  };
  emit_row(header_);
  out << '|';
  for (usize c = 0; c < header_.size(); ++c) out << "---|";
  out << '\n';
  for (const auto& row : cells_) emit_row(row);
}

std::string TextTable::to_string() const {
  std::ostringstream out;
  print(out);
  return out.str();
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  for (usize c = 0; c < cells.size(); ++c) {
    if (c > 0) out_ << ',';
    out_ << escape(cells[c]);
  }
  out_ << '\n';
}

std::string CsvWriter::escape(const std::string& cell) {
  const bool needs_quotes =
      cell.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string quoted = "\"";
  for (const char c : cell) {
    if (c == '"') quoted += "\"\"";
    else quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace smtu
