// Power iteration on the simulated vector machine: repeatedly multiply by a
// sparse matrix (HiSM positional multiply-accumulate on the simulated
// processor), normalizing on the host between steps — an end-to-end
// iterative workload where the SpMV kernel's simulated cycle cost
// accumulates across a whole solve.
//
//   ./power_iteration [--dim=1024] [--nnz=20000] [--iters=30]
#include <cmath>
#include <cstdio>

#include "formats/csr.hpp"
#include "kernels/spmv.hpp"
#include "suite/generators.hpp"
#include "support/cli.hpp"
#include "support/strings.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const Index dim = cli.get_u32("dim", 1024, 1);
  const usize nnz = cli.get_u32("nnz", 20000, 1);
  const u32 iters = cli.get_u32("iters", 30, 1);
  cli.finish();
  if (nnz > dim * dim) {
    cli.fail(format("option --nnz expects an integer in [1, %llu] (--dim squared), got '%zu'",
                    static_cast<unsigned long long>(dim * dim), nnz));
  }

  // A random non-negative matrix plus a strong diagonal: a well-behaved
  // dominant eigenpair for power iteration.
  Rng rng(29);
  Coo coo = suite::gen_random_uniform(dim, dim, nnz, rng);
  for (Index i = 0; i < dim; ++i) coo.add(i, i, 2.0f);
  coo.canonicalize();

  const vsim::MachineConfig config;
  const kernels::HismStage hism =
      kernels::build_hism_stage(HismMatrix::from_coo(coo, config.section));
  const Csr csr = Csr::from_coo(coo);

  std::vector<float> x(dim, 1.0f / std::sqrt(static_cast<float>(dim)));
  double lambda = 0.0;
  u64 total_cycles = 0;
  u32 used = 0;
  for (u32 k = 0; k < iters; ++k) {
    const auto product = kernels::run_hism_spmv(hism, x, config);
    total_cycles += product.stats.cycles;
    ++used;

    double dot_xy = 0.0;
    double norm_sq = 0.0;
    for (usize i = 0; i < x.size(); ++i) {
      dot_xy += static_cast<double>(x[i]) * product.y[i];
      norm_sq += static_cast<double>(product.y[i]) * product.y[i];
    }
    const double next_lambda = dot_xy;  // Rayleigh quotient (x normalized)
    const double norm = std::sqrt(norm_sq);
    for (usize i = 0; i < x.size(); ++i) x[i] = static_cast<float>(product.y[i] / norm);
    if (k > 2 && std::fabs(next_lambda - lambda) < 1e-7 * std::fabs(next_lambda)) {
      lambda = next_lambda;
      break;
    }
    lambda = next_lambda;
  }

  // Cross-check against a host-side power iteration.
  std::vector<float> xref(dim, 1.0f / std::sqrt(static_cast<float>(dim)));
  double lambda_ref = 0.0;
  for (u32 k = 0; k < used; ++k) {
    const auto y = csr.spmv(xref);
    double dot_xy = 0.0;
    double norm_sq = 0.0;
    for (usize i = 0; i < xref.size(); ++i) {
      dot_xy += static_cast<double>(xref[i]) * y[i];
      norm_sq += static_cast<double>(y[i]) * y[i];
    }
    lambda_ref = dot_xy;
    const double norm = std::sqrt(norm_sq);
    for (usize i = 0; i < xref.size(); ++i) xref[i] = static_cast<float>(y[i] / norm);
  }

  std::printf("power iteration on %llux%llu, %zu nnz:\n",
              static_cast<unsigned long long>(dim), static_cast<unsigned long long>(dim),
              coo.nnz());
  std::printf("  dominant eigenvalue: %.6f (host reference: %.6f)\n", lambda, lambda_ref);
  std::printf("  %u simulated SpMV steps, %llu total cycles (%.2f cycles/nnz/step)\n", used,
              static_cast<unsigned long long>(total_cycles),
              static_cast<double>(total_cycles) / static_cast<double>(used) /
                  static_cast<double>(coo.nnz()));
  const bool agree = std::fabs(lambda - lambda_ref) < 1e-3 * std::fabs(lambda_ref) + 1e-6;
  std::printf("  simulated and host iterations %s\n", agree ? "agree" : "DISAGREE");
  return agree ? 0 : 1;
}
