// Shared plumbing for the figure-reproduction benchmark binaries.
//
// Every binary accepts the flags below; the four simulation flags act only
// where a bench runs the matching path (README.md lists which):
//   --scale=<(0,1]>    shrink the suite for quick runs (default 1 = paper scale)
//   --seed=<u64>       suite generation seed
//   --jobs=<N> / -j N  worker threads for per-matrix simulation (default 0 =
//                      all hardware threads). Results are deterministic: any
//                      -jN produces cycle counts identical to -j1; only the
//                      wall_ms keys vary
//   --csv=<path>       also write the table as CSV
//   --json=<path>      machine-readable results: the comparison benches write
//                      an "smtu-bench-v1" report (per-matrix cycles, speedups,
//                      per-unit busy counters — see docs/TRACE.md); the
//                      table-shaped benches write the table as a JSON array
//   --trace-json=<path> Chrome trace-event dump (chrome://tracing / Perfetto)
//                      of the HiSM transpose of the first suite matrix
//                      (fig11-13, summary_speedup)
//   --verify           decode results from simulated memory and check them
//                      (every bench that sweeps single-core transposes,
//                      ext_kernel_suite)
//   --profile          attach the cycle-attribution profiler; JSON reports
//                      gain a per-matrix "profile" section (docs/PROFILING.md;
//                      the comparison benches and reproduce_all)
//   --sim-cache=<dir>  content-addressed on-disk result cache (every bench
//                      that sweeps single-core transposes, serve_sweep):
//                      simulations whose (program, config, image) triple was
//                      seen before are skipped and their RunStats/profile
//                      replayed from <dir> (see HACKING.md "Host
//                      performance"). Output stays bit-identical modulo
//                      wall_ms/host keys
//   --telemetry        collect host telemetry (ThreadPool, caches, per-item
//                      latency — docs/TELEMETRY.md); JSON reports gain a
//                      "telemetry" section and a summary prints to stderr
//   --telemetry-json=<path>  also write the standalone smtu-telemetry-v1
//                      document there (implies --telemetry)
//
// summary_speedup additionally accepts --mtxdir=<dir>: run on every .mtx
// file found there (e.g. the original D-SAB matrices) instead of the
// synthetic suite.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "formats/csr.hpp"
#include "hism/hism.hpp"
#include "kernels/staging.hpp"
#include "kernels/transpose_sim.hpp"
#include "kernels/utilization.hpp"
#include "stm/unit.hpp"
#include "suite/dsab.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "vsim/config.hpp"
#include "vsim/machine.hpp"
#include "vsim/profiler.hpp"
#include "vsim/program_cache.hpp"
#include "vsim/sim_cache.hpp"

namespace smtu::bench {

struct BenchOptions {
  suite::SuiteOptions suite;
  u32 jobs = 0;  // --jobs/-j: 0 = all hardware threads, 1 = serial
  std::optional<std::string> csv_path;
  std::optional<std::string> json_path;
  std::optional<std::string> trace_json_path;
  bool verify = false;
  // --profile: attach a cycle-attribution profiler to both kernels of every
  // comparison; the JSON reports gain a per-matrix "profile" section
  // (docs/PROFILING.md). Deterministic across -j values like the cycles.
  bool profile = false;
  // --sim-cache: directory of the content-addressed result cache; nullopt
  // disables it (every simulation runs).
  std::optional<std::string> sim_cache_dir;
  // --telemetry / --telemetry-json: host-side metrics (docs/TELEMETRY.md).
  // parse_options flips the process-wide telemetry switch, so `telemetry`
  // mirrors smtu::telemetry::enabled() for the rest of the run.
  bool telemetry = false;
  std::optional<std::string> telemetry_json_path;
};

// Parses the standard flags; calls cli.finish() so unknown flags fail fast.
// A --scale outside (0, 1], a negative --jobs, a --csv / --json /
// --trace-json / --telemetry-json path that cannot be opened for writing,
// or a --sim-cache directory that cannot be created fails too (exit status
// 2, before any simulation).
// Side effect: enables process-wide telemetry when --telemetry /
// --telemetry-json was given (and host trace events when --trace-json rides
// along, so host spans land in the Chrome dump under their own pid).
BenchOptions parse_options(CommandLine& cli);

// End-of-main telemetry flush: writes the standalone smtu-telemetry-v1
// document to options.telemetry_json_path (if set) and prints the metric
// summary to stderr. No-op when telemetry is off.
void finish_telemetry(const BenchOptions& options);

// ---- transposition sweeps ---------------------------------------------------
//
// Every bench that times single-core transposes asks one question: how many
// cycles does each program take on each machine? A sweep is a list of
// variants run against every matrix of a set.

// One column of a sweep: a transposition program on a machine.
struct TransposeVariant {
  std::string label;  // table column header, e.g. "s=64"
  kernels::TransposeProgram program;
  vsim::MachineConfig config;
};

std::vector<std::string> variant_labels(const std::vector<TransposeVariant>& variants);

// One matrix of a sweep: a run per variant, in variant order.
struct SweepRow {
  std::vector<kernels::TransposeRun> runs;
  double wall_ms = 0.0;  // host wall time of the row (nondeterministic)

  Cycle cycles(usize variant) const { return runs[variant].stats.cycles; }
};

// Runs every variant on every matrix of `set` through the one cached
// transpose path (kernels/transpose_sim.hpp), fanned over a thread pool
// sized by options.jobs; rows come back in set order and every -j value
// gives the same runs. options.verify decodes and checks each result, and
// a wrong transpose aborts, naming the matrix and the variant;
// options.sim_cache_dir replays runs seen before and stores the rest.
// `profile` attaches the cycle-attribution profiler (the comparison benches
// pass --profile).
std::vector<SweepRow> sweep_transposes(const std::vector<suite::SuiteMatrix>& set,
                                       const std::vector<TransposeVariant>& variants,
                                       const BenchOptions& options, bool profile = false);

// One matrix through both transposition paths on the simulated machine.
// The full per-run counters (unit busy cycles, instruction mix, STM phase
// cycles) ride along for the JSON reports.
struct TransposeComparison {
  u64 hism_cycles = 0;
  u64 crs_cycles = 0;
  double hism_cycles_per_nnz = 0.0;
  double crs_cycles_per_nnz = 0.0;
  double speedup = 0.0;
  double wall_ms = 0.0;  // host wall time of this comparison (nondeterministic)
  // Each kernel's run; its profile_json is set only when profiling was
  // requested (see BenchOptions::profile), and then `profiled` is true.
  kernels::TransposeRun hism;
  kernels::TransposeRun crs;
  bool profiled = false;
};

// ---- the paper's figures ----------------------------------------------------

// Speedup statistics of HiSM over CRS transposition as the paper reports them.
struct PaperSpeedups {
  double min, max, avg;
};

// The headline (abstract, §IV-D): all 30 matrices.
inline constexpr PaperSpeedups kPaperHeadline{1.8, 32.0, 17.6};

// One of the Fig. 11-13 series: a suite set against one of its metrics.
struct FigureSeries {
  const char* figure;         // "fig11": the figure tag of smtu-repro-v1
  const char* title;          // the REPORT.md section heading
  const char* set;            // suite set name
  const char* metric_header;  // e.g. "locality"
  double (*metric)(const suite::MatrixMetrics&);
  PaperSpeedups paper;
};

// Fig. 11: speedup grows monotonically with the matrix locality.
inline constexpr FigureSeries kFig11{
    "fig11", "Fig. 11 — performance vs. locality", suite::kSetLocality, "locality",
    [](const suite::MatrixMetrics& m) { return m.locality; }, {1.8, 32.0, 16.5}};
// Fig. 12: CRS improves as ANZ grows (longer rows amortize the per-row
// vector startup costs).
inline constexpr FigureSeries kFig12{
    "fig12", "Fig. 12 — performance vs. avg non-zeros/row", suite::kSetAnz, "nnz/row",
    [](const suite::MatrixMetrics& m) { return m.avg_nnz_per_row; }, {11.9, 28.9, 20.0}};
// Fig. 13: neither method's per-element cost depends much on matrix size.
inline constexpr FigureSeries kFig13{
    "fig13", "Fig. 13 — performance vs. size", suite::kSetSize, "nnz",
    [](const suite::MatrixMetrics& m) { return static_cast<double>(m.nnz); },
    {3.4, 28.2, 15.5}};
// The three in report order, as reproduce_all runs them.
inline constexpr FigureSeries kFigures[] = {kFig11, kFig12, kFig13};

// Runs one figure's suite set through both transposes and prints its table,
// measured speedups and the paper's.
int run_figure_bench(int argc, const char* const* argv, const FigureSeries& series);

// Fig. 10: STM buffer-bandwidth utilization, the suite mean at every (B, L).
struct UtilizationGrid {
  std::vector<u32> bandwidths{1, 2, 4, 8};
  std::vector<u32> lines{1, 2, 4, 8};
  std::vector<std::vector<double>> utilization;  // [bandwidth][lines]
};

// Evaluates every grid point on each matrix's traces across the pool, then
// averages in matrix order, so every -j value gives the same bits.
UtilizationGrid utilization_grid(ThreadPool& pool,
                                 const std::vector<kernels::StmTraceSet>& traces);

// The Fig. 10 table: one row per B, one column per L.
TextTable utilization_table(const UtilizationGrid& grid);

// The §II storage claim for one matrix: CRS against HiSM bytes at one
// section size, and the hierarchy's share of the HiSM bytes.
struct StorageFootprint {
  u64 crs_bytes = 0;
  u64 hism_bytes = 0;
  double ratio = 0.0;              // hism_bytes / crs_bytes
  double overhead_fraction = 0.0;  // HismStats::overhead_fraction
};

struct StorageSummary {
  std::vector<StorageFootprint> matrices;  // in set order
  double ratio_avg = 0.0;
  double overhead_fraction_avg = 0.0;
};

// Every matrix's footprint at section `section`, computed across a pool of
// `jobs` workers from MatrixStageCache's conversions and averaged in set
// order, so every -j value gives the same bits.
StorageSummary storage_footprints(const std::vector<suite::SuiteMatrix>& set, u32 section,
                                  u32 jobs);

// Loads every MatrixMarket file in `dir` as a suite (set = "external",
// sorted by filename); computes the paper's metrics for each. A missing or
// empty directory, a file the reader rejects, or a matrix `config`'s
// machine cannot stage (a HiSM key wider than 64 bits, a CRS image past
// its memory_limit) is the user's mistake: one line on stderr naming the
// file and exit status 2.
std::vector<suite::SuiteMatrix> load_external_suite(const std::string& dir,
                                                    const vsim::MachineConfig& config);

// Emits a table to stdout and, if requested, as CSV and/or JSON files: what
// --csv/--json write for every table-shaped bench.
void emit(const TextTable& table, const BenchOptions& options);

// Stdout and CSV only: for the benches whose --json writes a report of its
// own (smtu-bench-v1 and the like) instead of the table.
void emit(const TextTable& table, const std::optional<std::string>& csv_path);

// The standard ablation table: "matrix" + one column per variant label, one
// row per suite matrix (values[i][v] rendered with value_format), closed by
// an `average_label` row of per-column means.
TextTable sweep_average_table(const std::vector<suite::SuiteMatrix>& set,
                              const std::vector<std::string>& labels,
                              const std::vector<std::vector<double>>& values,
                              const char* value_format, const char* average_label);

// ---- structured benchmark reports (the "smtu-bench-v1" schema) -------------

// One suite matrix with its comparison result, ready for serialization.
struct MatrixRecord {
  std::string name;
  std::string set;
  std::string metric_name;  // empty: no figure metric for this bench
  double metric = 0.0;
  usize nnz = 0;
  TransposeComparison comparison;
};

// Sweeps the paper's HiSM kernel and its CRS baseline on `config` over
// `set` (sweep_transposes, profiled under --profile), preserving set order
// in the returned records; only wall_ms differs between -j values.
std::vector<MatrixRecord> run_comparisons(const std::vector<suite::SuiteMatrix>& set,
                                          const vsim::MachineConfig& config,
                                          const BenchOptions& options,
                                          const std::string& metric_name = "",
                                          double (*metric)(const suite::MatrixMetrics&) = nullptr);

// Host-side harness facts for the JSON reports: resolved worker count and
// total wall time. Both are excluded from bench_diff gating.
struct HarnessInfo {
  u32 jobs = 1;
  double wall_ms = 0.0;
};

// The Fig. 11-13 per-matrix table: matrix, the figure's metric, nnz, both
// kernels' cycles per non-zero and the speedup.
TextTable figure_table(const FigureSeries& series, const std::vector<MatrixRecord>& records);

// Speedup statistics over a record span (the per-figure summary line).
struct SpeedupSummary {
  usize count = 0;
  double min = 0.0;
  double max = 0.0;
  double avg = 0.0;
};
SpeedupSummary summarize_speedups(const std::vector<MatrixRecord>& records);

// Mid-document helpers: the per-matrix array (each element carries cycles,
// cycles/nnz, speedup, and both kernels' full RunStats) and the summary
// object. The caller owns the surrounding JSON structure.
void write_matrix_records_json(JsonWriter& json, const std::vector<MatrixRecord>& records);
void write_speedup_summary_json(JsonWriter& json, const SpeedupSummary& summary);

// Complete "smtu-bench-v1" document: schema/bench tags, machine config,
// suite options, harness info, matrices, summary. This is what `--json=PATH`
// writes for the comparison benches and what tools/bench_diff.py consumes.
// Host-side cache counters for the "host" sub-object: how much work the
// program / matrix-stage / simulation caches absorbed. Like wall_ms, the
// values depend on process history, so bench_diff.py skips the whole key.
struct HostCounters {
  vsim::ProgramCache::Stats program_cache;
  kernels::MatrixStageCache::Stats stage_cache;
  std::optional<vsim::SimCache::Stats> sim_cache;  // set only under --sim-cache
};
HostCounters collect_host_counters(const std::optional<std::string>& sim_cache_dir);
void write_host_json(JsonWriter& json, const HostCounters& host);

void write_bench_report_json(std::ostream& out, const std::string& bench_name,
                             const vsim::MachineConfig& config,
                             const suite::SuiteOptions& suite_options,
                             const std::vector<MatrixRecord>& records,
                             const HarnessInfo& harness = {}, const HostCounters& host = {});

// The "harness" sub-object shared by smtu-bench-v1 and smtu-repro-v1.
void write_harness_json(JsonWriter& json, const HarnessInfo& harness);

// Runs the HiSM transpose of `entry` with an ExecutionTrace attached and
// writes the Chrome trace-event JSON to `path` (the --trace-json flag).
void write_transpose_trace_json(const std::string& path, const suite::SuiteMatrix& entry,
                                const vsim::MachineConfig& config);

}  // namespace smtu::bench
