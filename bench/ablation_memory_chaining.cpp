// Ablation A2: the two machine features §II/§IV-A lean on — the contiguous
// vs indexed memory cost gap, and vector chaining.
//
// Part 1 measures raw access costs (the paper's own example: a contiguous
// 64-word load takes 20 + 64/4 = 36 cycles, an indexed one 20 + 64 = 84).
// Part 2 re-times both transpose kernels with chaining disabled.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "vsim/assembler.hpp"
#include "vsim/machine.hpp"

namespace {

smtu::Cycle run_cycles(const std::string& source, const smtu::vsim::MachineConfig& config) {
  smtu::vsim::Machine machine(config);
  machine.memory().ensure(0, 1 << 20);
  return machine.run(smtu::vsim::assemble(source)).cycles;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace smtu;
  CommandLine cli(argc, argv);
  const bench::BenchOptions options = bench::parse_options(cli);
  vsim::MachineConfig config;

  std::printf("== Ablation A2a: vector memory access costs (s=%u) ==\n", config.section);
  TextTable access({"access pattern", "cycles", "paper formula"});
  access.add_row({"contiguous 64-word load",
                  format("%llu", static_cast<unsigned long long>(run_cycles(
                                     "li r1, 64\nssvl r1\nli r2, 0x1000\n"
                                     "v_ld vr1, (r2)\nhalt\n",
                                     config))),
                  "20 + 64/4 = 36"});
  access.add_row({"indexed 64-element load",
                  format("%llu", static_cast<unsigned long long>(run_cycles(
                                     "li r1, 64\nssvl r1\nli r2, 0x1000\n"
                                     "v_bcasti vr0, 0\nv_ldx vr1, (r2), vr0\nhalt\n",
                                     config))),
                  "20 + 64 = 84 (+ index setup)"});
  access.add_row({"contiguous 64-word store",
                  format("%llu", static_cast<unsigned long long>(run_cycles(
                                     "li r1, 64\nssvl r1\nli r2, 0x1000\n"
                                     "v_bcasti vr1, 7\nv_st vr1, (r2)\nhalt\n",
                                     config))),
                  "20 + 64/4 = 36 (+ setup)"});
  access.print(std::cout);

  std::printf("\n== Ablation A2b: kernels with chaining on/off ==\n");
  // Medium workload: the ANZ set scaled down keeps the sweep quick.
  suite::SuiteOptions suite_options = options.suite;
  suite_options.scale = std::min(suite_options.scale, 0.25);
  const auto set = suite::build_dsab_set(suite::kSetAnz, suite_options);

  vsim::MachineConfig unchained = config;
  unchained.chaining = false;
  const std::vector<bench::TransposeVariant> variants = {
      {"HiSM chained", kernels::hism_transpose_program(), config},
      {"HiSM unchained", kernels::hism_transpose_program(), unchained},
      {"CRS chained", kernels::crs_transpose_program(config.section), config},
      {"CRS unchained", kernels::crs_transpose_program(config.section), unchained}};
  const auto rows = bench::sweep_transposes(set, variants, options);

  TextTable table({"matrix", "HiSM chained", "HiSM unchained", "CRS chained",
                   "CRS unchained"});
  const auto slowdown = [](Cycle on, Cycle off) {
    return format("%llu (+%.0f%%)", static_cast<unsigned long long>(off),
                  100.0 * (static_cast<double>(off) / static_cast<double>(on) - 1.0));
  };
  for (usize i = 0; i < set.size(); ++i) {
    const bench::SweepRow& row = rows[i];
    table.add_row({set[i].name, format("%llu", static_cast<unsigned long long>(row.cycles(0))),
                   slowdown(row.cycles(0), row.cycles(1)),
                   format("%llu", static_cast<unsigned long long>(row.cycles(2))),
                   slowdown(row.cycles(2), row.cycles(3))});
  }
  bench::emit(table, options);
  bench::finish_telemetry(options);
  return 0;
}
