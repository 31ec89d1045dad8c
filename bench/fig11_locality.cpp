// Figure 11: transposition performance (cycles per non-zero, HiSM vs CRS)
// and HiSM-vs-CRS speedup across the ten matrices selected by locality.
// The series and the paper's speedups are bench::kFig11.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return smtu::bench::run_figure_bench(argc, argv, smtu::bench::kFig11);
}
