// Domain scenario: least-squares via CGLS (conjugate gradient on the normal
// equations), the kind of scientific kernel the paper's introduction
// motivates. Every CGLS iteration needs both A*p and A^T*r products; with a
// one-sided storage format the transpose product is the expensive, irregular
// one, so solvers either keep an explicit transpose (doubling storage and
// paying a transposition) or suffer scattered accumulation.
//
// This example solves a random overdetermined system with host-side CSR
// arithmetic and reports what the simulated vector machine would pay for
// the explicit-transpose strategy: one HiSM+STM transposition vs one CRS
// (Pissanetsky) transposition of the same matrix.
//
//   ./cgls_solver [--rows=1200] [--cols=800] [--nnz=12000] [--iters=40]
#include <cmath>
#include <cstdio>

#include "formats/csr.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/spmv.hpp"
#include "suite/generators.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

namespace {

using namespace smtu;

float dot(const std::vector<float>& a, const std::vector<float>& b) {
  float sum = 0.0f;
  for (usize i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  CommandLine cli(argc, argv);
  const Index rows = cli.get_u32("rows", 1200, 1);
  const Index cols = cli.get_u32("cols", 800, 1);
  const usize nnz = cli.get_u32("nnz", 12000, 1);
  const u32 iters = cli.get_u32("iters", 40, 1);
  cli.finish();
  // The strengthened diagonal block needs a row per column, and the random
  // part a cell per non-zero.
  if (cols > rows) {
    cli.fail(format("option --cols expects an integer in [1, %llu] (at most --rows), got '%llu'",
                    static_cast<unsigned long long>(rows), static_cast<unsigned long long>(cols)));
  }
  if (nnz > rows * cols) {
    cli.fail(format("option --nnz expects an integer in [1, %llu] (--rows times --cols), got '%zu'",
                    static_cast<unsigned long long>(rows * cols), nnz));
  }

  // A well-conditioned random sparse A and a known solution x*.
  Rng rng(17);
  Coo coo = suite::gen_random_uniform(rows, cols, nnz, rng);
  for (Index i = 0; i < cols; ++i) coo.add(i, i, 4.0f);  // strengthen the diagonal block
  coo.canonicalize();
  const Csr a = Csr::from_coo(coo);
  const Csr at = a.transposed_pissanetsky();

  std::vector<float> x_true(cols);
  for (auto& v : x_true) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  const std::vector<float> b = a.spmv(x_true);

  // CGLS: minimize ||Ax - b||2.
  std::vector<float> x(cols, 0.0f);
  std::vector<float> r = b;                  // r = b - A x (x = 0)
  std::vector<float> s = at.spmv(r);         // s = A^T r
  std::vector<float> p = s;
  float gamma = dot(s, s);
  const float gamma0 = gamma;

  u32 used_iters = 0;
  for (u32 k = 0; k < iters && gamma > 1e-10f * gamma0; ++k) {
    const std::vector<float> q = a.spmv(p);
    const float alpha = gamma / dot(q, q);
    for (usize i = 0; i < x.size(); ++i) x[i] += alpha * p[i];
    for (usize i = 0; i < r.size(); ++i) r[i] -= alpha * q[i];
    s = at.spmv(r);
    const float gamma_next = dot(s, s);
    const float beta = gamma_next / gamma;
    for (usize i = 0; i < p.size(); ++i) p[i] = s[i] + beta * p[i];
    gamma = gamma_next;
    ++used_iters;
  }

  float err = 0.0f;
  float norm = 0.0f;
  for (usize i = 0; i < x.size(); ++i) {
    err += (x[i] - x_true[i]) * (x[i] - x_true[i]);
    norm += x_true[i] * x_true[i];
  }
  std::printf("CGLS on %llux%llu, %zu nnz: %u iterations, relative error %.2e\n",
              static_cast<unsigned long long>(rows), static_cast<unsigned long long>(cols),
              a.nnz(), used_iters, std::sqrt(err / norm));

  // What the explicit A^T build costs on the simulated vector machine.
  const vsim::MachineConfig config;
  const kernels::HismStage hism =
      kernels::build_hism_stage(HismMatrix::from_coo(coo, config.section));
  const u64 hism_cycles = kernels::run_hism_transpose(hism, config).stats.cycles;
  const u64 crs_cycles =
      kernels::run_crs_transpose(kernels::build_crs_stage(a), config).stats.cycles;
  std::printf("\nbuilding the explicit A^T once on the simulated vector processor:\n");
  std::printf("  HiSM + STM:          %9llu cycles\n",
              static_cast<unsigned long long>(hism_cycles));
  std::printf("  CRS (Pissanetsky):   %9llu cycles  (%.1fx slower)\n",
              static_cast<unsigned long long>(crs_cycles),
              static_cast<double>(crs_cycles) / static_cast<double>(hism_cycles));
  // HiSM's third option: multiply by A^T directly — the symmetric 8+8-bit
  // positions let the same blocks drive y[col] += v * x[row], so no
  // transposition is needed at all.
  const auto forward = kernels::run_hism_spmv(hism, std::vector<float>(cols, 1.0f), config);
  const auto backward =
      kernels::run_hism_spmv_transposed(hism, std::vector<float>(rows, 1.0f), config);
  std::printf("\nper-iteration products on the simulated machine (HiSM, no explicit A^T):\n");
  std::printf("  y = A x:             %9llu cycles\n",
              static_cast<unsigned long long>(forward.stats.cycles));
  std::printf("  y = A^T x direct:    %9llu cycles  (transpose-free)\n",
              static_cast<unsigned long long>(backward.stats.cycles));
  std::printf("\n(each CGLS iteration does one A*p and one A^T*r product; HiSM either\n"
              "builds the explicit A^T ~%0.fx cheaper than CRS, or skips it entirely\n"
              "via the mirror positional multiply-accumulate)\n",
              static_cast<double>(crs_cycles) / static_cast<double>(hism_cycles));
  return 0;
}
