// Synthetic stand-in for the Delft Sparse Architecture Benchmark (D-SAB)
// matrix suite (§IV-B of the paper).
//
// D-SAB selects 132 Matrix Market matrices, sorts them by size, locality and
// average non-zeros per row (ANZ), and picks ten per criterion with
// log-spaced parameter steps — 30 benchmark matrices total. The original
// .mtx files are not available offline, so each slot is regenerated
// synthetically with the *target parameter value* of its position on the
// log scale:
//
//   * locality set: 0.07 .. 12.85  (paper range, anchored by bcspwr10/qc324)
//   * ANZ set:      1    .. 172    (anchored by bcsstm20/psmigr_1)
//   * size set:     48   .. 3.75M non-zeros (anchored by bcsstm01/s3dkt3m2)
//
// Names carry the D-SAB anchor with a "-syn" suffix to make the
// substitution explicit. Generation is deterministic in the seed.
#pragma once

#include <string>
#include <vector>

#include "formats/coo.hpp"
#include "suite/metrics.hpp"

namespace smtu::suite {

inline constexpr const char* kSetLocality = "locality";
inline constexpr const char* kSetAnz = "anz";
inline constexpr const char* kSetSize = "size";

struct SuiteMatrix {
  std::string name;
  std::string set;   // kSetLocality / kSetAnz / kSetSize
  u32 index = 0;     // position within its set (sorted by the set criterion)
  Coo matrix;
  MatrixMetrics metrics;
};

struct SuiteOptions {
  u64 seed = 0xD5ABD5ABull;
  // Scales matrix sizes (and non-zero budgets) down for fast test runs;
  // 1.0 reproduces the paper-scale suite.
  double scale = 1.0;
};

// All 30 matrices, locality set first, then ANZ, then size.
std::vector<SuiteMatrix> build_dsab_suite(const SuiteOptions& options = {});

// Matrices per criterion set.
inline constexpr u32 kSetMatrices = 10;

// A single criterion set of kSetMatrices.
std::vector<SuiteMatrix> build_dsab_set(const std::string& set,
                                        const SuiteOptions& options = {});

// What build_dsab_set accepts: one of the three set names above, and a
// scale in (0, 1].
bool is_dsab_set(const std::string& set);
inline bool valid_scale(double scale) { return scale > 0.0 && scale <= 1.0; }

}  // namespace smtu::suite
