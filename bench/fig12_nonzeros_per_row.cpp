// Figure 12: transposition performance across the ten matrices selected by
// average non-zeros per row (ANZ). The series and the paper's speedups are
// bench::kFig12.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return smtu::bench::run_figure_bench(argc, argv, smtu::bench::kFig12);
}
