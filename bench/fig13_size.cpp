// Figure 13: transposition performance across the ten matrices selected by
// size (total non-zeros, 48 .. 3.75M). The series and the paper's speedups
// are bench::kFig13.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  return smtu::bench::run_figure_bench(argc, argv, smtu::bench::kFig13);
}
