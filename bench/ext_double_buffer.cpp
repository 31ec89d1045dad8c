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
#include "support/parallel.hpp"

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);

  std::printf("== Extension E4: double-buffered STM + software pipelining (locality set) ==\n");
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.5);
  const auto set = suite::build_dsab_set(suite::kSetLocality, suite_options);

  TextTable table({"matrix", "single", "dbuf naive", "dbuf pipelined", "gain"});
  struct BufferTimings {
    u64 single;
    u64 naive;
    u64 pipelined;
  };
  ThreadPool pool(options.jobs);
  const auto timings = parallel_map(pool, set, [&](const suite::SuiteMatrix& entry) {
    vsim::MachineConfig config;
    const auto stage = kernels::MatrixStageCache::instance().hism(entry.matrix, config.section);
    BufferTimings t;
    config.stm.double_buffer = false;
    t.single =
        kernels::time_hism_transpose(*stage, config, /*split_drain_registers=*/true).cycles;
    config.stm.double_buffer = true;
    t.naive =
        kernels::time_hism_transpose(*stage, config, /*split_drain_registers=*/true).cycles;
    t.pipelined = kernels::time_hism_transpose_pipelined(*stage, config).cycles;
    return t;
  });
  double total_gain = 0.0;
  for (usize i = 0; i < set.size(); ++i) {
    const BufferTimings& t = timings[i];
    const double gain = static_cast<double>(t.single) / static_cast<double>(t.pipelined);
    total_gain += gain;
    table.add_row({set[i].name, format("%llu", static_cast<unsigned long long>(t.single)),
                   format("%llu", static_cast<unsigned long long>(t.naive)),
                   format("%llu", static_cast<unsigned long long>(t.pipelined)),
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
