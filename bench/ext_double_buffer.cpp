// Extension E4: double-buffering the STM.
//
// §IV-A notes the unit "can not be fully pipelined" because the single
// s x s memory must fill before draining. A second memory in ping-pong
// (icm switches banks; StmConfig::double_buffer) removes that constraint —
// but hardware alone buys nothing: with the unmodified kernel, the machine
// issues vector memory instructions in order and every drain section ends
// in a store that the next fill's loads queue behind. The win requires
// *software pipelining* too: a kernel that interleaves child k's drain
// sections with child k+1's fill sections (hism_transpose_pipelined).
// This bench shows all three: single buffer, double buffer with the naive
// kernel (null result), and double buffer with the pipelined kernel.
#include <cstdio>

#include "bench_common.hpp"
#include "kernels/hism_transpose.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  std::printf("== Extension E4: double-buffered STM + software pipelining (locality set) ==\n");
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.5);
  const auto set = suite::build_dsab_set(suite::kSetLocality, suite_options);

  TextTable table({"matrix", "single", "dbuf naive", "dbuf pipelined", "gain"});
  // The single- and double-buffered runs of the unmodified kernel both use
  // its split-drain registers, so only the bank count differs.
  const kernels::TransposeProgram split{
      kernels::TransposeImage::kHism,
      kernels::hism_transpose_source(/*split_drain_registers=*/true)};
  const kernels::TransposeProgram pipelined{kernels::TransposeImage::kHism,
                                            kernels::hism_transpose_pipelined_source()};
  const vsim::MachineConfig single;
  vsim::MachineConfig twin;
  twin.stm.double_buffer = true;
  const std::vector<bench::TransposeVariant> variants = {
      {"single", split, single},
      {"dbuf naive", split, twin},
      {"dbuf pipelined", pipelined, twin}};
  const auto rows = bench::sweep_transposes(set, variants, options);
  double total_gain = 0.0;
  for (usize i = 0; i < set.size(); ++i) {
    const bench::SweepRow& row = rows[i];
    const double gain = static_cast<double>(row.cycles(0)) / static_cast<double>(row.cycles(2));
    total_gain += gain;
    table.add_row({set[i].name, format("%llu", static_cast<unsigned long long>(row.cycles(0))),
                   format("%llu", static_cast<unsigned long long>(row.cycles(1))),
                   format("%llu", static_cast<unsigned long long>(row.cycles(2))),
                   format("%.2fx", gain)});
  }
  table.add_row({"AVERAGE", "", "", "",
                 format("%.2fx", total_gain / static_cast<double>(set.size()))});
  bench::emit(table, options);
  std::printf(
      "\nreading: the second buffer alone is a null result (in-order memory\n"
      "serializes the phases regardless of banking); hardware + the software-\n"
      "pipelined kernel together overlap each child's drain with the next\n"
      "child's fill. Cost: 2x the unit's SRAM and a more intricate kernel.\n");
  bench::finish_telemetry(options);
  return 0;
}
