#include "suite/dsab.hpp"

#include <cmath>
#include <functional>

#include "suite/generators.hpp"
#include "support/assert.hpp"

namespace smtu::suite {
namespace {

struct Spec {
  const char* name;
  std::function<Coo(double scale, Rng& rng)> generate;
};

Index scaled_dim(Index dim, double scale, Index min_dim = 8) {
  return std::max<Index>(min_dim, static_cast<Index>(std::llround(static_cast<double>(dim) * scale)));
}

usize scaled_count(usize count, double scale, usize min_count = 4) {
  return std::max<usize>(min_count,
                         static_cast<usize>(std::llround(static_cast<double>(count) * scale)));
}

// ---- Locality set: 32x32 clusters with exactly per_block non-zeros, so the
// paper's locality metric equals per_block/32 by construction. Targets are
// log-spaced over the paper's 0.07 .. 12.85 range.
std::vector<Spec> locality_specs() {
  struct P {
    const char* name;
    u32 per_block;
  };
  // per_block = round(32 * locality_target)
  static constexpr P kParams[] = {
      {"bcspwr10-syn", 2},    {"memplus-syn", 4},    {"gemat11-syn", 7},
      {"sherman5-syn", 13},   {"mcfe-syn", 23},      {"fs_541_1-syn", 40},
      {"bcsstk08-syn", 72},   {"s2rmq4m1-syn", 129}, {"psmigr_2-syn", 230},
      {"qc324-syn", 411},
  };
  std::vector<Spec> specs;
  for (const P& p : kParams) {
    specs.push_back({p.name, [per_block = p.per_block](double scale, Rng& rng) {
                       // ~60k non-zeros at full scale, on an 8192^2 matrix.
                       const usize blocks =
                           scaled_count(60000 / per_block + 1, scale, 2);
                       Index dim = 8192;
                       while (static_cast<usize>(dim / 32) * (dim / 32) < blocks) dim *= 2;
                       dim = std::max<Index>(
                           64, (scaled_dim(dim, std::sqrt(scale), 64) + 31) / 32 * 32);
                       while (static_cast<usize>(dim / 32) * (dim / 32) < blocks) dim += 32;
                       return gen_block_clusters(dim, blocks, per_block, rng);
                     }});
  }
  return specs;
}

// ---- ANZ set: per-row non-zero counts log-spaced over 1 .. 172, drawn from
// a banded window so locality rises with ANZ (the correlation §IV-D notes
// for the original set). Dimensions follow the D-SAB anchors — the real
// bcsstm20 is 485x485 and psmigr_1 is 3140x3140 — so small low-ANZ matrices
// carry realistic per-matrix overheads.
std::vector<Spec> anz_specs() {
  struct P {
    const char* name;
    u32 per_row;
    Index dim;
  };
  static constexpr P kParams[] = {
      {"bcsstm20-syn", 1, 485},    {"nos4-syn", 2, 597},
      {"bcspwr09-syn", 3, 734},    {"bcsstk22-syn", 6, 903},
      {"plat1919-syn", 10, 1111},  {"gr_30_30-syn", 17, 1367},
      {"s1rmq4m1-syn", 31, 1682},  {"bcsstk24-syn", 55, 2069},
      {"e20r0000-syn", 97, 2546},  {"psmigr_1-syn", 172, 3140},
  };
  std::vector<Spec> specs;
  for (const P& p : kParams) {
    specs.push_back({p.name, [per_row = p.per_row, dim = p.dim](double scale, Rng& rng) {
                       const Index n = scaled_dim(dim, scale, 128);
                       if (per_row == 1) return gen_diagonal(n, rng);
                       const u32 spread = std::max<u32>(per_row, 8);
                       return gen_banded_rows(n, per_row, spread, rng);
                     }});
  }
  return specs;
}

// ---- Size set: total non-zeros log-spaced over 48 .. 3.75M with a mix of
// pattern families (diagonal, band, FEM stencils, uniform scatter, dense
// clusters), mirroring the variety of the original selection.
std::vector<Spec> size_specs() {
  std::vector<Spec> specs;
  specs.push_back({"bcsstm01-syn", [](double scale, Rng& rng) {
                     return gen_diagonal(scaled_dim(48, scale), rng);
                   }});
  specs.push_back({"bcsstm02-syn", [](double scale, Rng& rng) {
                     return gen_tridiagonal(scaled_dim(57, scale), rng);
                   }});
  specs.push_back({"can_161-syn", [](double scale, Rng& rng) {
                     return gen_stencil5(scaled_dim(11, std::sqrt(scale), 4), rng);
                   }});
  specs.push_back({"dwt_992-syn", [](double scale, Rng& rng) {
                     return gen_stencil5(scaled_dim(21, std::sqrt(scale), 4), rng);
                   }});
  specs.push_back({"west0989-syn", [](double scale, Rng& rng) {
                     // Wide scatter (<2 non-zeros per 32x32 block): the
                     // size set's low-locality representative.
                     const Index n = scaled_dim(2048, std::sqrt(scale), 64);
                     return gen_random_uniform(n, n, scaled_count(7203, scale), rng);
                   }});
  specs.push_back({"sherman3-syn", [](double scale, Rng& rng) {
                     return gen_banded_rows(scaled_dim(3151, scale, 64), 8, 16, rng);
                   }});
  specs.push_back({"cage10-syn", [](double scale, Rng& rng) {
                     return gen_stencil9(scaled_dim(100, std::sqrt(scale), 8), rng);
                   }});
  specs.push_back({"memplus2-syn", [](double scale, Rng& rng) {
                     const usize blocks = scaled_count(4800, scale, 4);
                     Index dim = 16384;
                     while (static_cast<usize>(dim / 32) * (dim / 32) < blocks) dim *= 2;
                     dim = std::max<Index>(
                         64, (scaled_dim(dim, std::sqrt(scale), 64) + 31) / 32 * 32);
                     while (static_cast<usize>(dim / 32) * (dim / 32) < blocks) dim += 32;
                     return gen_block_clusters(dim, blocks, 64, rng);
                   }});
  specs.push_back({"bcsstk30-syn", [](double scale, Rng& rng) {
                     return gen_banded_rows(scaled_dim(43235, scale, 128), 25, 50, rng);
                   }});
  specs.push_back({"s3dkt3m2-syn", [](double scale, Rng& rng) {
                     return gen_banded_rows(scaled_dim(89374, scale, 256), 42, 84, rng);
                   }});
  return specs;
}

std::vector<SuiteMatrix> materialize(const std::string& set, const std::vector<Spec>& specs,
                                     const SuiteOptions& options) {
  std::vector<SuiteMatrix> result;
  result.reserve(specs.size());
  u32 index = 0;
  for (const Spec& spec : specs) {
    // Independent stream per slot so scaling one matrix never shifts others.
    Rng rng(options.seed ^ (static_cast<u64>(std::hash<std::string>{}(spec.name)) * 0x9e37ULL));
    SuiteMatrix entry;
    entry.name = spec.name;
    entry.set = set;
    entry.index = index++;
    entry.matrix = spec.generate(options.scale, rng);
    entry.metrics = compute_metrics(entry.matrix);
    result.push_back(std::move(entry));
  }
  return result;
}

}  // namespace

bool is_dsab_set(const std::string& set) {
  return set == kSetLocality || set == kSetAnz || set == kSetSize;
}

std::vector<SuiteMatrix> build_dsab_set(const std::string& set, const SuiteOptions& options) {
  SMTU_CHECK_MSG(valid_scale(options.scale), "scale must be in (0, 1]");
  if (set == kSetLocality) return materialize(set, locality_specs(), options);
  if (set == kSetAnz) return materialize(set, anz_specs(), options);
  if (set == kSetSize) return materialize(set, size_specs(), options);
  SMTU_CHECK_MSG(false, "unknown suite set: " + set);
  return {};
}

std::vector<SuiteMatrix> build_dsab_suite(const SuiteOptions& options) {
  std::vector<SuiteMatrix> suite = build_dsab_set(kSetLocality, options);
  for (auto& entry : build_dsab_set(kSetAnz, options)) suite.push_back(std::move(entry));
  for (auto& entry : build_dsab_set(kSetSize, options)) suite.push_back(std::move(entry));
  return suite;
}

}  // namespace smtu::suite
