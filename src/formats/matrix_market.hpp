// Matrix Market (.mtx) reader/writer.
//
// The paper's benchmark matrices come from the Matrix Market collection; the
// suite in this reproduction is synthetic (no network access), but we support
// the format so users can run every experiment on the original matrices by
// dropping the .mtx files in and pointing the bench binaries at them.
//
// Supported: `matrix coordinate {real,integer,pattern} {general,symmetric,
// skew-symmetric}` and `matrix array real` with the same symmetries; a
// symmetric or skew-symmetric matrix must be square. Complex is rejected.
#pragma once

#include <iosfwd>
#include <string>

#include "formats/coo.hpp"

namespace smtu {

// Throws std::runtime_error with a line-numbered message on malformed input.
Coo read_matrix_market(std::istream& in);
Coo read_matrix_market_file(const std::string& path);

// Writes `matrix coordinate real general` with 1-based indices.
void write_matrix_market(std::ostream& out, const Coo& matrix,
                         const std::string& comment = {});
void write_matrix_market_file(const std::string& path, const Coo& matrix,
                              const std::string& comment = {});

}  // namespace smtu
