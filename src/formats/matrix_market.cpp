#include "formats/matrix_market.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "support/assert.hpp"
#include "support/strings.hpp"

namespace smtu {
namespace {

constexpr u64 kMaxReservedEntries = u64{1} << 16;

[[noreturn]] void fail(usize line_number, const std::string& what) {
  throw std::runtime_error(format("matrix market: line %zu: %s", line_number, what.c_str()));
}

struct Header {
  enum class Layout { Coordinate, Array };
  enum class Field { Real, Integer, Pattern };
  enum class Symmetry { General, Symmetric, SkewSymmetric };

  Layout layout = Layout::Coordinate;
  Field field = Field::Real;
  Symmetry symmetry = Symmetry::General;
};

Header parse_header(const std::string& line) {
  const auto tokens = split_whitespace(line);
  if (tokens.size() != 5 || to_lower(tokens[0]) != "%%matrixmarket" ||
      to_lower(tokens[1]) != "matrix") {
    fail(1, "expected '%%MatrixMarket matrix <layout> <field> <symmetry>'");
  }
  Header header;
  const std::string layout = to_lower(tokens[2]);
  if (layout == "coordinate") header.layout = Header::Layout::Coordinate;
  else if (layout == "array") header.layout = Header::Layout::Array;
  else fail(1, "unsupported layout '" + layout + "'");

  const std::string field = to_lower(tokens[3]);
  if (field == "real") header.field = Header::Field::Real;
  else if (field == "integer") header.field = Header::Field::Integer;
  else if (field == "pattern") header.field = Header::Field::Pattern;
  else fail(1, "unsupported field '" + field + "' (complex not supported)");

  const std::string symmetry = to_lower(tokens[4]);
  if (symmetry == "general") header.symmetry = Header::Symmetry::General;
  else if (symmetry == "symmetric") header.symmetry = Header::Symmetry::Symmetric;
  else if (symmetry == "skew-symmetric") header.symmetry = Header::Symmetry::SkewSymmetric;
  else fail(1, "unsupported symmetry '" + symmetry + "'");
  return header;
}

// A symmetric or skew-symmetric file stores one triangle and mirrors it
// into the other, which only fits a square matrix.
void check_square(const Header& header, u64 rows, u64 cols, usize line_number) {
  if (header.symmetry != Header::Symmetry::General && rows != cols) {
    fail(line_number, format("a symmetric matrix must be square, not %llu x %llu",
                             static_cast<unsigned long long>(rows),
                             static_cast<unsigned long long>(cols)));
  }
}

}  // namespace

Coo read_matrix_market(std::istream& in) {
  std::string line;
  usize line_number = 0;

  if (!std::getline(in, line)) fail(1, "empty stream");
  ++line_number;
  const Header header = parse_header(line);

  // Skip comments and blank lines until the size line.
  std::vector<std::string_view> size_tokens;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped.front() == '%') continue;
    size_tokens = split_whitespace(stripped);
    break;
  }
  if (size_tokens.empty()) fail(line_number, "missing size line");

  if (header.layout == Header::Layout::Array) {
    if (size_tokens.size() != 2) fail(line_number, "array size line needs 'rows cols'");
    const auto rows = parse_uint(size_tokens[0]);
    const auto cols = parse_uint(size_tokens[1]);
    if (!rows || !cols) fail(line_number, "bad array dimensions");
    check_square(header, *rows, *cols, line_number);
    Coo coo(*rows, *cols);
    // Array data is column-major, one value per line; a matrix with no rows
    // holds no values, however many columns it declares.
    const Index columns = *rows == 0 ? 0 : *cols;
    for (Index c = 0; c < columns; ++c) {
      const Index row_limit = header.symmetry == Header::Symmetry::General ? 0 : c;
      for (Index r = row_limit; r < *rows; ++r) {
        if (!std::getline(in, line)) fail(line_number, "truncated array data");
        ++line_number;
        const auto value = parse_double(trim(line));
        if (!value) fail(line_number, "bad array value");
        if (*value != 0.0) {
          coo.add(r, c, static_cast<float>(*value));
          if (header.symmetry != Header::Symmetry::General && r != c) {
            const float mirrored = header.symmetry == Header::Symmetry::SkewSymmetric
                                       ? -static_cast<float>(*value)
                                       : static_cast<float>(*value);
            coo.add(c, r, mirrored);
          }
        }
      }
    }
    coo.canonicalize();
    return coo;
  }

  if (size_tokens.size() != 3) fail(line_number, "coordinate size line needs 'rows cols nnz'");
  const auto rows = parse_uint(size_tokens[0]);
  const auto cols = parse_uint(size_tokens[1]);
  const auto declared_nnz = parse_uint(size_tokens[2]);
  if (!rows || !cols || !declared_nnz) fail(line_number, "bad size line");
  check_square(header, *rows, *cols, line_number);

  Coo coo(*rows, *cols);
  // The size line's count is only a claim: a short file may declare
  // billions. Reserve at most kMaxReservedEntries up front and let the
  // entries grow as they arrive, so such a file fails as truncated.
  coo.entries().reserve(std::min<u64>(*declared_nnz, kMaxReservedEntries));
  usize seen = 0;
  while (seen < *declared_nnz) {
    if (!std::getline(in, line)) fail(line_number, "truncated entry data");
    ++line_number;
    const std::string_view stripped = trim(line);
    if (stripped.empty() || stripped.front() == '%') continue;
    const auto tokens = split_whitespace(stripped);
    const usize expected = header.field == Header::Field::Pattern ? 2 : 3;
    if (tokens.size() != expected) fail(line_number, "bad entry arity");
    const auto row1 = parse_uint(tokens[0]);
    const auto col1 = parse_uint(tokens[1]);
    if (!row1 || !col1 || *row1 == 0 || *col1 == 0 || *row1 > *rows || *col1 > *cols) {
      fail(line_number, "entry indices out of range");
    }
    double value = 1.0;
    if (header.field != Header::Field::Pattern) {
      const auto parsed = parse_double(tokens[2]);
      if (!parsed) fail(line_number, "bad entry value");
      value = *parsed;
    }
    const Index r = *row1 - 1;
    const Index c = *col1 - 1;
    coo.add(r, c, static_cast<float>(value));
    if (header.symmetry != Header::Symmetry::General && r != c) {
      const float mirrored = header.symmetry == Header::Symmetry::SkewSymmetric
                                 ? -static_cast<float>(value)
                                 : static_cast<float>(value);
      coo.add(c, r, mirrored);
    }
    ++seen;
  }
  coo.canonicalize();
  return coo;
}

Coo read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const Coo& matrix, const std::string& comment) {
  Coo storage;
  const Coo& canonical = matrix.canonical_view(storage);
  out << "%%MatrixMarket matrix coordinate real general\n";
  if (!comment.empty()) out << "% " << comment << '\n';
  out << canonical.rows() << ' ' << canonical.cols() << ' ' << canonical.nnz() << '\n';
  for (const CooEntry& e : canonical.entries()) {
    // max_digits10 for float: round-trips the exact stored value.
    out << e.row + 1 << ' ' << e.col + 1 << ' ' << format("%.9g", e.value) << '\n';
  }
}

void write_matrix_market_file(const std::string& path, const Coo& matrix,
                              const std::string& comment) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path + " for writing");
  write_matrix_market(out, matrix, comment);
}

}  // namespace smtu
