#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "formats/matrix_market.hpp"
#include "hism/stats.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/layout.hpp"
#include "kernels/transpose_sim.hpp"
#include "support/assert.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "vsim/json_export.hpp"
#include "vsim/trace.hpp"

namespace smtu::bench {
namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  const auto delta = std::chrono::steady_clock::now() - since;
  return std::chrono::duration<double, std::milli>(delta).count();
}

// Exits like open_output_file ("cannot open <path>", status 2) unless
// `path` can be opened for writing, without truncating it. A file the probe
// creates is removed again, so a run that stops early leaves nothing behind.
void check_output_file(const std::string& path) {
  std::error_code ec;
  const bool existed = std::filesystem::exists(path, ec);
  if (!std::ofstream(path, std::ios::app)) exit_usage_error("cannot open " + path);
  if (!existed) std::filesystem::remove(path, ec);
}

}  // namespace

TextTable sweep_average_table(const std::vector<suite::SuiteMatrix>& set,
                              const std::vector<std::string>& labels,
                              const std::vector<std::vector<double>>& values,
                              const char* value_format, const char* average_label) {
  std::vector<std::string> header = {"matrix"};
  header.insert(header.end(), labels.begin(), labels.end());
  TextTable table(std::move(header));

  std::vector<double> totals(labels.size(), 0.0);
  for (usize i = 0; i < set.size(); ++i) {
    SMTU_CHECK(values[i].size() == labels.size());
    std::vector<std::string> row = {set[i].name};
    for (usize column = 0; column < values[i].size(); ++column) {
      totals[column] += values[i][column];
      row.push_back(format(value_format, values[i][column]));
    }
    table.add_row(std::move(row));
  }
  std::vector<std::string> avg_row = {average_label};
  for (const double total : totals) {
    avg_row.push_back(format(value_format, total / static_cast<double>(std::max<usize>(1, set.size()))));
  }
  table.add_row(std::move(avg_row));
  return table;
}

BenchOptions parse_options(CommandLine& cli) {
  BenchOptions options;
  options.suite.scale = cli.get_double("scale", 1.0);
  if (!suite::valid_scale(options.suite.scale)) {
    cli.fail(format("option --scale expects a number in (0, 1], got '%g'", options.suite.scale));
  }
  options.suite.seed = cli.get_u64("seed", 0xD5ABD5ABull);
  options.jobs = cli.get_u32("jobs", 0);
  const std::string csv = cli.get_string("csv", "");
  if (!csv.empty()) options.csv_path = csv;
  const std::string json = cli.get_string("json", "");
  if (!json.empty()) options.json_path = json;
  const std::string trace_json = cli.get_string("trace-json", "");
  if (!trace_json.empty()) options.trace_json_path = trace_json;
  options.verify = cli.get_flag("verify");
  options.profile = cli.get_flag("profile");
  const std::string sim_cache = cli.get_string("sim-cache", "");
  if (!sim_cache.empty()) options.sim_cache_dir = sim_cache;
  options.telemetry = cli.get_flag("telemetry");
  const std::string telemetry_json = cli.get_string("telemetry-json", "");
  if (!telemetry_json.empty()) {
    options.telemetry_json_path = telemetry_json;
    options.telemetry = true;
  }
  cli.finish();
  // Every output path, and the sim-cache directory, is checked before the
  // first simulation, so one that cannot be written fails before the run
  // rather than after it.
  for (const auto* path : {&options.csv_path, &options.json_path, &options.trace_json_path,
                           &options.telemetry_json_path}) {
    if (*path) check_output_file(**path);
  }
  if (options.sim_cache_dir) create_output_directory(*options.sim_cache_dir);
  if (options.telemetry) {
    telemetry::set_enabled(true);
    // Host spans join the Chrome dump (own pid) only when both were asked
    // for; a bare --trace-json dump stays byte-identical to telemetry-off.
    if (options.trace_json_path) telemetry::set_host_trace_enabled(true);
  }
  return options;
}

void finish_telemetry(const BenchOptions& options) {
  if (!telemetry::enabled()) return;
  if (options.telemetry_json_path) {
    std::ofstream out = open_output_file(*options.telemetry_json_path);
    JsonWriter json(out);
    telemetry::write_telemetry_json(json);
    out << '\n';
    std::fprintf(stderr, "wrote telemetry to %s\n", options.telemetry_json_path->c_str());
  }
  std::fprintf(stderr, "-- telemetry --\n%s",
               telemetry::MetricsRegistry::instance().summary().c_str());
}

std::vector<std::string> variant_labels(const std::vector<TransposeVariant>& variants) {
  std::vector<std::string> labels;
  labels.reserve(variants.size());
  for (const TransposeVariant& variant : variants) labels.push_back(variant.label);
  return labels;
}

std::vector<SweepRow> sweep_transposes(const std::vector<suite::SuiteMatrix>& set,
                                       const std::vector<TransposeVariant>& variants,
                                       const BenchOptions& options, bool profile) {
  vsim::SimCache* sim_cache = vsim::sim_cache_for(options.sim_cache_dir);
  ThreadPool pool(options.jobs);
  return parallel_map(pool, set, [&](const suite::SuiteMatrix& entry) {
    const auto started = std::chrono::steady_clock::now();
    SweepRow row;
    row.runs.reserve(variants.size());
    for (const TransposeVariant& variant : variants) {
      row.runs.push_back(kernels::simulate_transpose(variant.program, entry.matrix,
                                                     variant.config, options.verify, profile,
                                                     sim_cache));
      SMTU_CHECK_MSG(row.runs.back().correct, "variant '" + variant.label +
                                                  "' decoded a wrong transpose of matrix " +
                                                  entry.name);
    }
    row.wall_ms = elapsed_ms(started);
    if (telemetry::enabled()) {
      telemetry::histogram("bench.item_wall_us").record(static_cast<u64>(row.wall_ms * 1000.0));
    }
    return row;
  });
}

std::vector<MatrixRecord> run_comparisons(const std::vector<suite::SuiteMatrix>& set,
                                          const vsim::MachineConfig& config,
                                          const BenchOptions& options,
                                          const std::string& metric_name,
                                          double (*metric)(const suite::MatrixMetrics&)) {
  const std::vector<TransposeVariant> variants = {
      {"HiSM", kernels::hism_transpose_program(), config},
      {"CRS", kernels::crs_transpose_program(config.section), config}};
  std::vector<SweepRow> rows = sweep_transposes(set, variants, options, options.profile);
  std::vector<MatrixRecord> records;
  records.reserve(set.size());
  for (usize i = 0; i < set.size(); ++i) {
    const suite::SuiteMatrix& entry = set[i];
    TransposeComparison comparison;
    comparison.hism = std::move(rows[i].runs[0]);
    comparison.crs = std::move(rows[i].runs[1]);
    comparison.profiled = options.profile;
    comparison.hism_cycles = comparison.hism.stats.cycles;
    comparison.crs_cycles = comparison.crs.stats.cycles;
    const double nnz = static_cast<double>(std::max<usize>(entry.matrix.nnz(), 1));
    comparison.hism_cycles_per_nnz = static_cast<double>(comparison.hism_cycles) / nnz;
    comparison.crs_cycles_per_nnz = static_cast<double>(comparison.crs_cycles) / nnz;
    comparison.speedup = comparison.hism_cycles == 0
                             ? 0.0
                             : static_cast<double>(comparison.crs_cycles) /
                                   static_cast<double>(comparison.hism_cycles);
    comparison.wall_ms = rows[i].wall_ms;
    records.push_back({entry.name, entry.set, metric_name, metric ? metric(entry.metrics) : 0.0,
                       entry.matrix.nnz(), std::move(comparison)});
  }
  return records;
}

StorageSummary storage_footprints(const std::vector<suite::SuiteMatrix>& set, u32 section,
                                  u32 jobs) {
  ThreadPool pool(jobs);
  StorageSummary summary;
  summary.matrices = parallel_map(pool, set, [&](const suite::SuiteMatrix& entry) {
    auto& stages = kernels::MatrixStageCache::instance();
    const HismStats stats = compute_stats(stages.hism(entry.matrix, section)->hism);
    const u64 crs_bytes = stages.crs(entry.matrix)->csr.storage_bytes();
    return StorageFootprint{crs_bytes, stats.storage_bytes,
                            static_cast<double>(stats.storage_bytes) /
                                static_cast<double>(crs_bytes),
                            stats.overhead_fraction};
  });
  // Summed in set order, off the pool: identical for every -j value.
  double ratio_sum = 0.0;
  double overhead_sum = 0.0;
  for (const StorageFootprint& footprint : summary.matrices) {
    ratio_sum += footprint.ratio;
    overhead_sum += footprint.overhead_fraction;
  }
  const auto n = static_cast<double>(summary.matrices.size());
  summary.ratio_avg = ratio_sum / n;
  summary.overhead_fraction_avg = overhead_sum / n;
  return summary;
}

std::vector<suite::SuiteMatrix> load_external_suite(const std::string& dir,
                                                    const vsim::MachineConfig& config) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    exit_usage_error("--mtxdir: '" + dir + "' is not a readable directory");
  }
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".mtx") {
      paths.push_back(entry.path());
    }
  }
  if (ec) exit_usage_error("--mtxdir: cannot list '" + dir + "': " + ec.message());
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) exit_usage_error("--mtxdir: no .mtx files in " + dir);

  std::vector<suite::SuiteMatrix> external;
  u32 index = 0;
  for (const auto& path : paths) {
    const auto reject = [&](const std::string& why) {
      exit_usage_error("--mtxdir: " + path.string() + ": " + why);
    };
    suite::SuiteMatrix entry;
    entry.name = path.stem().string();
    entry.set = "external";
    entry.index = index++;
    try {
      entry.matrix = read_matrix_market_file(path.string());
    } catch (const std::runtime_error& error) {
      reject(error.what());
    }
    // What the machine cannot stage, by the rules staging itself applies:
    // the HiSM key's width, and each image's snapshot, sized as a stage
    // sizes it, against the memory attach_base lets it into.
    const auto rows = static_cast<unsigned long long>(entry.matrix.rows());
    const auto cols = static_cast<unsigned long long>(entry.matrix.cols());
    if (!HismMatrix::key_fits(rows, cols, config.section)) {
      reject(format("a %llu x %llu matrix needs a HiSM key of more than 64 bits at s = %u",
                    rows, cols, config.section));
    }
    const auto check_snapshot = [&](const char* layout, Addr end) {
      const u64 snapshot = vsim::Memory::snapshot_size(end);
      if (snapshot <= config.memory_limit) return;
      reject(format("its %s image ends at byte %llu, past the machine's %llu-byte memory when "
                    "staged as a %llu-byte snapshot",
                    layout, static_cast<unsigned long long>(end),
                    static_cast<unsigned long long>(config.memory_limit),
                    static_cast<unsigned long long>(snapshot)));
    };
    check_snapshot("CRS", kernels::crs_image_layout(rows, cols, entry.matrix.nnz(),
                                                    kernels::kImageBase)
                              .end);
    check_snapshot("HiSM", hism_image_layout(HismMatrix::from_coo(entry.matrix, config.section),
                                             kernels::kImageBase)
                               .end);
    entry.metrics = suite::compute_metrics(entry.matrix);
    external.push_back(std::move(entry));
  }
  return external;
}

void emit(const TextTable& table, const std::optional<std::string>& csv_path) {
  table.print(std::cout);
  if (!csv_path) return;
  std::ofstream out = open_output_file(*csv_path);
  CsvWriter csv(out);
  csv.write_row(table.header());
  for (usize r = 0; r < table.rows(); ++r) csv.write_row(table.row(r));
  std::fprintf(stderr, "wrote CSV to %s\n", csv_path->c_str());
}

void emit(const TextTable& table, const BenchOptions& options) {
  emit(table, options.csv_path);
  if (!options.json_path) return;
  std::ofstream out = open_output_file(*options.json_path);
  write_table_as_json(out, table);
  std::fprintf(stderr, "wrote JSON to %s\n", options.json_path->c_str());
}

int run_figure_bench(int argc, const char* const* argv, const FigureSeries& series) {
  CommandLine cli(argc, argv);
  const BenchOptions options = parse_options(cli);
  const vsim::MachineConfig config;  // the paper's §IV-A machine

  std::printf("== %s set: HiSM (STM, B=%u, L=%u) vs CRS transposition, s=%u ==\n",
              series.set, config.stm.bandwidth, config.stm.lines, config.section);
  if (options.suite.scale != 1.0) {
    std::printf("(suite scaled by %.3f; paper scale is --scale=1)\n", options.suite.scale);
  }

  const auto started = std::chrono::steady_clock::now();
  const auto set = suite::build_dsab_set(series.set, options.suite);
  const std::vector<MatrixRecord> records =
      run_comparisons(set, config, options, series.metric_header, series.metric);
  const HarnessInfo harness{resolve_jobs(options.jobs), elapsed_ms(started)};

  emit(figure_table(series, records), options.csv_path);
  if (options.json_path) {
    std::ofstream out = open_output_file(*options.json_path);
    write_bench_report_json(out, series.set, config, options.suite, records, harness,
                            collect_host_counters(options.sim_cache_dir));
    std::fprintf(stderr, "wrote JSON report to %s\n", options.json_path->c_str());
  }
  if (options.trace_json_path) {
    write_transpose_trace_json(*options.trace_json_path, set.front(), config);
  }

  const SpeedupSummary summary = summarize_speedups(records);
  std::printf("\nmeasured speedup: min %.1f  max %.1f  avg %.1f\n", summary.min, summary.max,
              summary.avg);
  std::printf("paper (IPPS'04):  min %.1f  max %.1f  avg %.1f\n", series.paper.min,
              series.paper.max, series.paper.avg);
  finish_telemetry(options);
  return 0;
}

UtilizationGrid utilization_grid(ThreadPool& pool,
                                 const std::vector<kernels::StmTraceSet>& traces) {
  UtilizationGrid grid;
  // points[m][b * L + l]: matrix m at the b-th bandwidth and l-th line count.
  const auto points = parallel_map(pool, traces, [&](const kernels::StmTraceSet& matrix) {
    std::vector<double> utilization;
    for (const u32 bandwidth : grid.bandwidths) {
      for (const u32 lines : grid.lines) {
        StmConfig config;
        config.bandwidth = bandwidth;
        config.lines = lines;
        utilization.push_back(kernels::stm_utilization(matrix, config).utilization);
      }
    }
    return utilization;
  });
  for (usize b = 0; b < grid.bandwidths.size(); ++b) {
    std::vector<double> row;
    for (usize l = 0; l < grid.lines.size(); ++l) {
      double sum = 0.0;
      for (const auto& matrix : points) sum += matrix[b * grid.lines.size() + l];
      row.push_back(sum / static_cast<double>(points.size()));
    }
    grid.utilization.push_back(std::move(row));
  }
  return grid;
}

TextTable utilization_table(const UtilizationGrid& grid) {
  std::vector<std::string> header = {"B"};
  for (const u32 lines : grid.lines) header.push_back(format("L=%u", lines));
  TextTable table(std::move(header));
  for (usize b = 0; b < grid.bandwidths.size(); ++b) {
    std::vector<std::string> row = {format("%u", grid.bandwidths[b])};
    for (const double utilization : grid.utilization[b]) {
      row.push_back(format("%.3f", utilization));
    }
    table.add_row(std::move(row));
  }
  return table;
}

TextTable figure_table(const FigureSeries& series, const std::vector<MatrixRecord>& records) {
  TextTable table({"matrix", series.metric_header, "nnz", "HiSM cyc/nnz", "CRS cyc/nnz",
                   "speedup"});
  for (const MatrixRecord& record : records) {
    table.add_row({record.name, format("%.2f", record.metric), format("%zu", record.nnz),
                   format("%.2f", record.comparison.hism_cycles_per_nnz),
                   format("%.2f", record.comparison.crs_cycles_per_nnz),
                   format("%.1f", record.comparison.speedup)});
  }
  return table;
}

SpeedupSummary summarize_speedups(const std::vector<MatrixRecord>& records) {
  SpeedupSummary summary;
  if (records.empty()) return summary;
  summary.count = records.size();
  summary.min = 1e300;
  for (const MatrixRecord& record : records) {
    summary.min = std::min(summary.min, record.comparison.speedup);
    summary.max = std::max(summary.max, record.comparison.speedup);
    summary.avg += record.comparison.speedup;
  }
  summary.avg /= static_cast<double>(records.size());
  return summary;
}

void write_matrix_records_json(JsonWriter& json, const std::vector<MatrixRecord>& records) {
  json.begin_array();
  for (const MatrixRecord& record : records) {
    json.begin_object();
    json.key("name");
    json.value(record.name);
    json.key("set");
    json.value(record.set);
    if (!record.metric_name.empty()) {
      json.key("metric_name");
      json.value(record.metric_name);
      json.key("metric");
      json.value(record.metric);
    }
    json.key("nnz");
    json.value(static_cast<u64>(record.nnz));
    json.key("hism_cycles");
    json.value(record.comparison.hism_cycles);
    json.key("crs_cycles");
    json.value(record.comparison.crs_cycles);
    json.key("hism_cycles_per_nnz");
    json.value(record.comparison.hism_cycles_per_nnz);
    json.key("crs_cycles_per_nnz");
    json.value(record.comparison.crs_cycles_per_nnz);
    json.key("speedup");
    json.value(record.comparison.speedup);
    json.key("wall_ms");
    json.value(record.comparison.wall_ms);
    json.key("hism");
    vsim::write_run_stats_json(json, record.comparison.hism.stats);
    json.key("crs");
    vsim::write_run_stats_json(json, record.comparison.crs.stats);
    if (record.comparison.profiled) {
      // Pre-rendered by simulate_transpose (or replayed verbatim from the
      // sim cache), so cached and live reports are byte-identical.
      json.key("profile");
      json.begin_object();
      json.key("hism");
      json.raw(record.comparison.hism.profile_json);
      json.key("crs");
      json.raw(record.comparison.crs.profile_json);
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
}

void write_speedup_summary_json(JsonWriter& json, const SpeedupSummary& summary) {
  json.begin_object();
  json.key("count");
  json.value(static_cast<u64>(summary.count));
  json.key("min_speedup");
  json.value(summary.min);
  json.key("max_speedup");
  json.value(summary.max);
  json.key("avg_speedup");
  json.value(summary.avg);
  json.end_object();
}

void write_harness_json(JsonWriter& json, const HarnessInfo& harness) {
  json.begin_object();
  json.key("jobs");
  json.value(static_cast<u64>(harness.jobs));
  json.key("wall_ms");
  json.value(harness.wall_ms);
  json.end_object();
}

HostCounters collect_host_counters(const std::optional<std::string>& sim_cache_dir) {
  HostCounters host;
  host.program_cache = vsim::ProgramCache::instance().stats();
  host.stage_cache = kernels::MatrixStageCache::instance().stats();
  if (vsim::SimCache* cache = vsim::sim_cache_for(sim_cache_dir)) {
    host.sim_cache = cache->stats();
  }
  return host;
}

void write_host_json(JsonWriter& json, const HostCounters& host) {
  json.begin_object();
  json.key("program_cache");
  json.begin_object();
  json.key("hits");
  json.value(host.program_cache.hits);
  json.key("misses");
  json.value(host.program_cache.misses);
  json.end_object();
  json.key("stage_cache");
  json.begin_object();
  json.key("hits");
  json.value(host.stage_cache.hits);
  json.key("misses");
  json.value(host.stage_cache.misses);
  json.end_object();
  json.key("sim_cache");
  if (host.sim_cache) {
    json.begin_object();
    json.key("hits");
    json.value(host.sim_cache->hits);
    json.key("misses");
    json.value(host.sim_cache->misses);
    json.key("stores");
    json.value(host.sim_cache->stores);
    json.end_object();
  } else {
    json.null();
  }
  json.end_object();
}

void write_bench_report_json(std::ostream& out, const std::string& bench_name,
                             const vsim::MachineConfig& config,
                             const suite::SuiteOptions& suite_options,
                             const std::vector<MatrixRecord>& records,
                             const HarnessInfo& harness, const HostCounters& host) {
  JsonWriter json(out);
  json.begin_object();
  json.key("schema");
  json.value("smtu-bench-v1");
  json.key("bench");
  json.value(bench_name);
  json.key("config");
  vsim::write_machine_config_json(json, config);
  json.key("suite");
  json.begin_object();
  json.key("scale");
  json.value(suite_options.scale);
  json.key("seed");
  json.value(suite_options.seed);
  json.end_object();
  json.key("harness");
  write_harness_json(json, harness);
  json.key("host");
  write_host_json(json, host);
  if (telemetry::enabled()) {
    // Only present on telemetry runs, and dropped wholesale by
    // tools/bench_diff.py, so telemetry-on and telemetry-off reports match.
    json.key("telemetry");
    telemetry::write_telemetry_json(json);
  }
  json.key("matrices");
  write_matrix_records_json(json, records);
  json.key("summary");
  write_speedup_summary_json(json, summarize_speedups(records));
  json.end_object();
  out << '\n';
}

void write_transpose_trace_json(const std::string& path, const suite::SuiteMatrix& entry,
                                const vsim::MachineConfig& config) {
  const auto stage = kernels::MatrixStageCache::instance().hism(entry.matrix, config.section);
  vsim::ExecutionTrace trace(1u << 20);
  kernels::run_hism_transpose(*stage, config, {}, &trace);
  std::ofstream out = open_output_file(path);
  vsim::write_chrome_trace(out, trace, "hism_transpose:" + entry.name);
  std::fprintf(stderr, "wrote Chrome trace (%zu events) to %s\n", trace.events().size(),
               path.c_str());
}

}  // namespace smtu::bench
