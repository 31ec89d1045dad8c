#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "formats/coo.hpp"
#include "kernels/crs_transpose.hpp"
#include "kernels/hism_transpose.hpp"
#include "kernels/shard.hpp"
#include "kernels/staging.hpp"
#include "kernels/utilization.hpp"
#include "serve/server.hpp"
#include "serve/trace.hpp"
#include "spans.hpp"
#include "suite/dsab.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "vsim/program_cache.hpp"

namespace hostbench {
namespace {

namespace fs = std::filesystem;
using namespace smtu;

// Suite scale of every workload: the scale of the checked-in baselines.
constexpr double kScale = 0.05;
constexpr double kSmokeScale = 0.02;

// Independent sub-seeds (suite, arrivals, request order) of one workload seed.
// They are kept to 32 bits: trace files store numbers as JSON doubles, and a
// seed above 2^53 would not survive the round trip through the trace file.
u64 derive_seed(u64 seed, u64 salt) {
  u64 state = seed ^ (salt * 0xd1b54a32d192ed03ull);
  return splitmix64(state) & 0xffffffffull;
}

suite::SuiteOptions suite_options(const WorkloadOptions& options) {
  suite::SuiteOptions suite;
  suite.seed = derive_seed(options.seed, 1);
  suite.scale = options.smoke ? kSmokeScale : kScale;
  return suite;
}

struct CacheCounts {
  u64 program_hits = 0;
  u64 program_misses = 0;
  u64 stage_hits = 0;
  u64 stage_misses = 0;
};

CacheCounts cache_counts() {
  const auto program = vsim::ProgramCache::instance().stats();
  const auto stage = kernels::MatrixStageCache::instance().stats();
  return CacheCounts{program.hits, program.misses, stage.hits, stage.misses};
}

void record_cache_deltas(const CacheCounts& before, RoundResult& result) {
  const CacheCounts after = cache_counts();
  result.counts["program.hits"] = static_cast<double>(after.program_hits - before.program_hits);
  result.counts["program.misses"] =
      static_cast<double>(after.program_misses - before.program_misses);
  result.counts["stage.hits"] = static_cast<double>(after.stage_hits - before.stage_hits);
  result.counts["stage.misses"] = static_cast<double>(after.stage_misses - before.stage_misses);
}

u64 instructions(const vsim::SystemRunStats& stats) {
  u64 total = 0;
  for (const vsim::RunStats& core : stats.core_stats) total += core.instructions;
  return total;
}

// ---- paper_suite ------------------------------------------------------------

// All 30 D-SAB matrices through HiSM and CRS on the paper's machine, the
// Fig. 10 (B, L) STM grid, and the 4-core sharded HiSM transpose over the
// locality set; serial, with the program and stage caches cleared before
// every round as every reproduce_all run pays them.
class PaperSuite final : public Workload {
 public:
  explicit PaperSuite(const WorkloadOptions& options) : options_(options) {}

  u64 setup() override {
    {
      Span span("suite.build");
      suite_ = suite::build_dsab_suite(suite_options(options_));
    }
    expected_.clear();
    for (const suite::SuiteMatrix& entry : suite_) expected_.push_back(entry.matrix.transposed());
    locality_.clear();
    for (usize i = 0; i < suite_.size(); ++i) {
      if (suite_[i].set == suite::kSetLocality) locality_.push_back(i);
    }
    hism_source_ = kernels::hism_transpose_source(false);
    crs_source_ = kernels::crs_transpose_source(config_.section, {});
    sharded_source_ = kernels::sharded_hism_transpose_source();
    // One verified round fixes the reference cycle counts every timed round
    // must reproduce.
    first_cycles_.clear();
    return round().failed;
  }

  u64 ops_per_round() const override { return 2 * suite_.size() + locality_.size(); }

  ModelMetrics model() const override { return model_; }

  RoundResult round() override {
    clear_library_caches();
    RoundResult result;
    result.attempted = ops_per_round();
    std::vector<std::shared_ptr<const kernels::HismStage>> stages;
    std::vector<HismMatrix> hism_out;
    std::vector<Coo> crs_out;
    std::vector<Coo> sharded_out;
    std::vector<u64> cycles;  // per operation, in operation order
    u64 hism_insts = 0;
    u64 crs_insts = 0;
    u64 sharded_insts = 0;
    u64 stm_elements = 0;
    const auto timed_op = [&result](const char* layer, auto&& run) {
      const auto started = Clock::now();
      Span span(layer);
      run();
      result.op_ms.push_back(seconds_since(started) * 1e3);
    };

    const CacheCounts before = cache_counts();
    const auto started = Clock::now();
    {
      Span round_span("bench.round");
      for (const suite::SuiteMatrix& entry : suite_) {
        std::shared_ptr<const kernels::CrsStage> crs_stage;
        {
          Span span("kernels.stage");
          stages.push_back(
              kernels::MatrixStageCache::instance().hism(entry.matrix, config_.section));
          crs_stage = kernels::MatrixStageCache::instance().crs(entry.matrix);
        }
        {
          Span span("vsim.assemble");
          vsim::ProgramCache::instance().get(hism_source_);
          vsim::ProgramCache::instance().get(crs_source_);
        }
        timed_op("kernels.hism", [&] {
          kernels::HismTransposeResult run = kernels::run_hism_transpose(*stages.back(), config_);
          cycles.push_back(run.stats.cycles);
          hism_insts += run.stats.instructions;
          hism_out.push_back(std::move(run.transposed));
        });
        timed_op("kernels.crs", [&] {
          kernels::CrsTransposeResult run = kernels::run_crs_transpose(*crs_stage, config_);
          cycles.push_back(run.stats.cycles);
          crs_insts += run.stats.instructions;
          crs_out.push_back(std::move(run.transposed));
        });
      }
      {
        Span span("stm.grid");
        for (const auto& stage : stages) {
          const kernels::StmTraceSet traces = kernels::stm_block_traces(stage->hism);
          for (const u32 bandwidth : kGrid) {
            for (const u32 lines : kGrid) {
              StmConfig stm;
              stm.bandwidth = bandwidth;
              stm.lines = lines;
              stm_elements += kernels::stm_utilization(traces, stm).transfers;
            }
          }
        }
      }
      vsim::SystemConfig system;
      system.cores = kShardCores;
      for (const usize index : locality_) {
        {
          Span span("vsim.assemble");
          vsim::ProgramCache::instance().get(sharded_source_);
        }
        timed_op("kernels.sharded", [&] {
          std::vector<vsim::PerfCounters> profilers;
          kernels::ShardedHismTransposeResult run =
              kernels::run_sharded_hism_transpose(suite_[index].matrix, system, &profilers);
          cycles.push_back(run.stats.cycles);
          sharded_insts += instructions(run.stats);
          sharded_out.push_back(std::move(run.transposed));
        });
      }
    }
    result.wall_s = seconds_since(started);
    record_cache_deltas(before, result);

    // Checks, outside the timed part: every transpose decodes to the
    // reference, and every cycle count repeats the first round's.
    for (usize i = 0; i < suite_.size(); ++i) {
      if (!structurally_equal(hism_out[i].to_coo(), expected_[i])) ++result.failed;
      if (!structurally_equal(crs_out[i], expected_[i])) ++result.failed;
    }
    for (usize i = 0; i < locality_.size(); ++i) {
      if (!structurally_equal(sharded_out[i], expected_[locality_[i]])) ++result.failed;
    }
    if (first_cycles_.empty()) {
      first_cycles_ = cycles;
      model_ = model_of(cycles);
    } else {
      for (usize i = 0; i < cycles.size(); ++i) {
        if (cycles[i] != first_cycles_[i]) ++result.failed;
      }
    }
    result.failed = std::min(result.failed, result.attempted);

    double total_cycles = 0.0;
    for (const u64 value : cycles) total_cycles += static_cast<double>(value);
    result.delivered_cycles = total_cycles;
    result.counts["sim.cycles"] = total_cycles;
    result.counts["sim.insts"] = static_cast<double>(hism_insts + crs_insts + sharded_insts);
    result.counts["sim.hism_insts"] = static_cast<double>(hism_insts);
    result.counts["sim.crs_insts"] = static_cast<double>(crs_insts);
    result.counts["stm.elements"] = static_cast<double>(stm_elements);
    return result;
  }

 private:
  static constexpr u32 kGrid[] = {1, 2, 4, 8};  // Fig. 10: B and L values
  static constexpr u32 kShardCores = 4;

  // The headline speedup over the suite, and the p99 virtual latency of its
  // 60 single-core transposes submitted to the serve model's default server
  // all at once (computed after the round; no serve code runs inside it).
  ModelMetrics model_of(const std::vector<u64>& cycles) const {
    double speedup_sum = 0.0;
    std::vector<serve::Request> burst;
    std::unordered_map<serve::SimKey, u64, serve::SimKeyHash> key_cycles;
    for (u32 i = 0; i < suite_.size(); ++i) {
      const u64 hism = cycles[2 * i];
      const u64 crs = cycles[2 * i + 1];
      speedup_sum += static_cast<double>(crs) / static_cast<double>(hism);
      for (const auto& [kernel, value] : {std::pair{serve::Kernel::kHism, hism},
                                          std::pair{serve::Kernel::kCrs, crs}}) {
        burst.push_back(serve::Request{static_cast<u32>(burst.size()), i, kernel, 0, 0});
        key_cycles[serve::key_of(burst.back())] = value;
      }
    }
    serve::ServeOptions options;
    options.queue_depth = static_cast<u32>(burst.size());
    return ModelMetrics{speedup_sum / static_cast<double>(suite_.size()),
                        serve::run_virtual(burst, key_cycles, options).total.p99};
  }

  WorkloadOptions options_;
  vsim::MachineConfig config_;
  std::vector<suite::SuiteMatrix> suite_;
  std::vector<Coo> expected_;
  std::vector<usize> locality_;  // suite indices of the locality set
  std::string hism_source_;
  std::string crs_source_;
  std::string sharded_source_;
  std::vector<u64> first_cycles_;
  ModelMetrics model_;
};

// ---- serve workloads ----------------------------------------------------------

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

u64 count_files(const fs::path& dir) {
  std::error_code error;
  if (!fs::is_directory(dir, error)) return 0;
  return static_cast<u64>(std::distance(fs::directory_iterator(dir), fs::directory_iterator{}));
}

std::vector<serve::SimKey> distinct_keys(const serve::Trace& trace) {
  std::vector<serve::SimKey> keys;
  for (const serve::Request& request : trace.requests) keys.push_back(serve::key_of(request));
  const auto order = [](const serve::SimKey& a, const serve::SimKey& b) {
    if (a.matrix != b.matrix) return a.matrix < b.matrix;
    if (a.config != b.config) return a.config < b.config;
    return a.kernel < b.kernel;
  };
  std::sort(keys.begin(), keys.end(), order);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// A round replays the trace file the way `smtu_serve --replay` does: read,
// parse, serve, write the report. The report is written to memory, so disk
// speed does not enter the timing. The traced run serves through the public
// parts of serve_trace (build_dsab_set, simulate_keys, run_virtual) so that
// each gets its own span. A warm workload keeps the library caches and one
// sim-cache directory across rounds, so no key simulates; a cold one clears
// the caches and starts an empty directory every round, so every key
// simulates and stores.
class ServeWorkload : public Workload {
 public:
  ServeWorkload(const WorkloadOptions& options, bool cold)
      : options_(options),
        cold_(cold),
        trace_path_(options.work_dir / "trace.json") {
    serve_options_.jobs = options.jobs;
  }

  u64 ops_per_round() const override { return trace_.requests.size(); }

  ModelMetrics model() const override { return model_; }

  RoundResult round() override {
    if (cold_) {
      clear_library_caches();
      use_sim_cache_dir("sweep-" + std::to_string(rounds_++));
    }
    const u64 files_before = count_files(sim_cache_dir_);
    RoundResult result;
    result.attempted = trace_.requests.size();
    const bool traced = recorder().enabled();
    std::optional<serve::Trace> trace;
    serve::ServeReport report;
    std::unordered_map<serve::SimKey, u64, serve::SimKeyHash> key_cycles;
    usize set_size = 0;
    std::ostringstream report_text;
    bool report_complete = false;

    const CacheCounts before = cache_counts();
    const auto started = Clock::now();
    {
      Span round_span("bench.round");
      const std::string text = read_file(trace_path_);
      std::optional<JsonValue> document;
      {
        Span span("support.json_parse");
        document = parse_json(text);
      }
      if (document) {
        Span span("serve.trace_parse");
        trace = serve::parse_trace(*document);
      }
      if (trace) {
        if (traced) {
          {
            Span span("suite.build");
            set_size = suite::build_dsab_set(trace->set, trace->suite).size();
          }
          {
            Span span("serve.simulate");
            key_cycles = serve::simulate_keys(*trace, serve_options_);
          }
          Span span("serve.virtual");
          report.virt = serve::run_virtual(trace->requests, key_cycles, serve_options_);
          report.host.simulations = key_cycles.size();
        } else {
          report = serve::serve_trace(*trace, serve_options_);
        }
        Span span("serve.report_write");
        JsonWriter json(report_text);
        serve::write_serve_report_json(json, *trace, serve_options_, report);
        report_complete = json.complete();
      }
    }
    result.wall_s = seconds_since(started);
    record_cache_deltas(before, result);

    // Checks: the report balances, and every served cycle count is the
    // verified one (exactly per key in the traced run; through the
    // report's cycle sums and p99, which are functions of them, otherwise).
    const serve::VirtualReport& v = report.virt;
    bool ok = trace.has_value() && report_complete &&
              trace->requests.size() == trace_.requests.size() &&
              v.admitted_requests + v.shed_requests == result.attempted &&
              v.simulated_requests + v.coalesced_requests + v.warm_requests ==
                  v.admitted_requests &&
              v.distinct_sims == expected_.distinct_sims &&
              v.offered_cycles == expected_.offered_cycles &&
              v.sim_cycles == expected_.sim_cycles && v.total.p99 == expected_.total.p99;
    if (traced) {
      ok = ok && set_size == trace_.matrix_count && key_cycles.size() == verified_.size();
      for (const auto& [key, cycles] : key_cycles) {
        const auto it = verified_.find(key);
        ok = ok && it != verified_.end() && it->second == cycles;
      }
    }
    const u64 stores = count_files(sim_cache_dir_) - files_before;
    ok = ok && stores == (cold_ ? verified_.size() : 0);
    result.failed = ok ? v.shed_requests : result.attempted;

    result.delivered_cycles = distinct_cycles();
    result.counts["sim.cycles"] = cold_ ? distinct_cycles() : 0.0;
    result.counts["simcache.lookups"] = static_cast<double>(verified_.size());
    result.counts["simcache.stores"] = static_cast<double>(stores);
    result.counts["serve.requests"] = static_cast<double>(result.attempted);
    result.counts["serve.distinct_keys"] = static_cast<double>(v.distinct_sims);
    result.counts["serve.warm"] = static_cast<double>(v.warm_requests);
    result.counts["serve.coalesced"] = static_cast<double>(v.coalesced_requests);
    result.counts["serve.queue_p99_vus"] = static_cast<double>(v.queue.p99);
    if (cold_) fs::remove_all(sim_cache_dir_);
    return result;
  }

 protected:
  void use_sim_cache_dir(const std::string& name) {
    sim_cache_dir_ = options_.work_dir / name;
    serve_options_.sim_cache_dir = sim_cache_dir_.string();
  }

  // Runs every distinct key of trace_ once directly, decoding the result and
  // comparing it with the reference transpose; fills verified_ and the
  // model metrics. Returns the number of keys that failed.
  u64 verify_keys(const std::vector<suite::SuiteMatrix>& set) {
    verified_.clear();
    u64 failed = 0;
    std::unordered_map<u32, Coo> expected;
    for (const serve::SimKey& key : distinct_keys(trace_)) {
      const Coo& coo = set[key.matrix].matrix;
      auto [slot, fresh] = expected.try_emplace(key.matrix);
      if (fresh) slot->second = coo.transposed();
      const vsim::MachineConfig config = serve::machine_config_for(trace_.configs[key.config]);
      bool correct = false;
      u64 cycles = 0;
      if (key.kernel == serve::Kernel::kHism) {
        const auto stage = kernels::MatrixStageCache::instance().hism(coo, config.section);
        const auto run = kernels::run_hism_transpose(*stage, config);
        correct = structurally_equal(run.transposed.to_coo(), slot->second);
        cycles = run.stats.cycles;
      } else {
        const auto stage = kernels::MatrixStageCache::instance().crs(coo);
        const auto run = kernels::run_crs_transpose(*stage, config);
        correct = structurally_equal(run.transposed, slot->second);
        cycles = run.stats.cycles;
      }
      if (!correct) ++failed;
      verified_[key] = cycles;
    }
    expected_ = serve::run_virtual(trace_.requests, verified_, serve_options_);
    model_ = ModelMetrics{speedup_avg(), expected_.total.p99};
    return failed;
  }

  // Simulated cycles of one result per distinct key.
  double distinct_cycles() const {
    double total = 0.0;
    for (const auto& [key, cycles] : verified_) total += static_cast<double>(cycles);
    return total;
  }

  // Mean CRS/HiSM cycle ratio over the (matrix, config) pairs served on
  // both kernels.
  double speedup_avg() const {
    double sum = 0.0;
    u64 pairs = 0;
    for (const auto& [key, hism] : verified_) {
      if (key.kernel != serve::Kernel::kHism) continue;
      const auto crs = verified_.find(serve::SimKey{key.matrix, serve::Kernel::kCrs, key.config});
      if (crs == verified_.end()) continue;
      sum += static_cast<double>(crs->second) / static_cast<double>(hism);
      ++pairs;
    }
    return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
  }

  WorkloadOptions options_;
  bool cold_;
  fs::path trace_path_;
  fs::path sim_cache_dir_;
  u64 rounds_ = 0;
  serve::ServeOptions serve_options_;
  serve::Trace trace_;
  std::unordered_map<serve::SimKey, u64, serve::SimKeyHash> verified_;
  serve::VirtualReport expected_;  // the virtual replay on verified cycles
  ModelMetrics model_;
};

// ---- serve_zipf ---------------------------------------------------------------

// A seeded open-loop Zipf-1.0 trace over the locality set, replayed with the
// program, stage and sim caches warm: dedup, warm replay, the virtual
// scheduler, JSON I/O and sim-cache lookups do the work, the interpreter none.
class ServeZipf final : public ServeWorkload {
 public:
  explicit ServeZipf(const WorkloadOptions& options) : ServeWorkload(options, false) {}

  u64 setup() override {
    serve::GeneratorOptions generator;
    generator.seed = derive_seed(options_.seed, 2);
    generator.set = suite::kSetLocality;
    generator.suite = suite_options(options_);
    generator.requests = options_.smoke ? 2000 : kRequests;
    generator.arrival.rate_rps = kRateRps;
    generator.arrival.zipf_skew = 1.0;
    trace_ = serve::generate_trace(generator);
    serve::write_trace_file(trace_path_.string(), trace_);
    // No request is ever shed, so every request is answered and checked.
    serve_options_.queue_depth = static_cast<u32>(trace_.requests.size());

    u64 failed = verify_keys(suite::build_dsab_set(trace_.set, trace_.suite));
    // Warm the sim cache in a directory of this set-up's own.
    use_sim_cache_dir("simcache-" + std::to_string(setups_++));
    for (const auto& [key, cycles] : serve::simulate_keys(trace_, serve_options_)) {
      const auto it = verified_.find(key);
      if (it == verified_.end() || it->second != cycles) ++failed;
    }
    // One replay, like a timed round, so the set-up peak memory covers the
    // parsed trace and the report.
    return failed + round().failed;
  }

 private:
  static constexpr u32 kRequests = 40000;
  // 90% of the warm capacity of the four virtual workers (20 vus per
  // replay), so requests queue and the p99 depends on the arrivals.
  static constexpr double kRateRps = 180000.0;

  u32 setups_ = 0;
};

// ---- design_sweep -------------------------------------------------------------

// Every (matrix, kernel, config) of the locality set under a wide (s, B, L)
// variant table, one request each: dedup never fires, and each round starts
// from cleared caches and an empty sim-cache directory, so every key misses,
// simulates on the ThreadPool and stores.
class DesignSweep final : public ServeWorkload {
 public:
  explicit DesignSweep(const WorkloadOptions& options) : ServeWorkload(options, true) {}

  u64 setup() override {
    suite::SuiteOptions suite = suite_options(options_);
    if (!options_.smoke) suite.scale = kSweepScale;
    std::vector<suite::SuiteMatrix> set;
    {
      Span span("suite.build");
      set = suite::build_dsab_set(suite::kSetLocality, suite);
    }
    trace_ = serve::Trace{};
    trace_.seed = options_.seed;
    trace_.set = suite::kSetLocality;
    trace_.suite = suite;
    trace_.arrival.rate_rps = kRateRps;
    trace_.matrix_count = static_cast<u32>(set.size());
    for (const u32 section : kSections) {
      for (const u32 bandwidth : kBandwidths) {
        for (const u32 lines : kLines) {
          trace_.configs.push_back(serve::ConfigSpec{section, bandwidth, lines});
        }
      }
    }
    if (options_.smoke) trace_.configs.resize(4);
    for (u32 matrix = 0; matrix < trace_.matrix_count; ++matrix) {
      for (u32 config = 0; config < trace_.configs.size(); ++config) {
        for (const serve::Kernel kernel : {serve::Kernel::kHism, serve::Kernel::kCrs}) {
          trace_.requests.push_back(serve::Request{0, matrix, kernel, config, 0});
        }
      }
    }
    Rng rng(derive_seed(options_.seed, 3));
    rng.shuffle(trace_.requests);
    const double mean_gap_us = 1e6 / kRateRps;
    u64 now_us = 0;
    for (u32 id = 0; id < trace_.requests.size(); ++id) {
      now_us += std::max<u64>(
          1, static_cast<u64>(std::llround(-std::log(1.0 - rng.uniform()) * mean_gap_us)));
      trace_.requests[id].id = id;
      trace_.requests[id].arrival_us = now_us;
    }
    serve::write_trace_file(trace_path_.string(), trace_);
    serve_options_.queue_depth = static_cast<u32>(trace_.requests.size());
    return verify_keys(set);
  }

 private:
  static constexpr u32 kSections[] = {32, 64};
  static constexpr u32 kBandwidths[] = {1, 2, 4, 8};
  static constexpr u32 kLines[] = {4};
  static constexpr double kSweepScale = 0.25;
  static constexpr double kRateRps = 1000.0;
};

}  // namespace

void clear_library_caches() {
  vsim::ProgramCache::instance().clear();
  kernels::MatrixStageCache::instance().clear();
}

std::unique_ptr<Workload> make_workload(const std::string& name, const WorkloadOptions& options) {
  if (name == "paper_suite") return std::make_unique<PaperSuite>(options);
  if (name == "serve_zipf") return std::make_unique<ServeZipf>(options);
  if (name == "design_sweep") return std::make_unique<DesignSweep>(options);
  return nullptr;
}

}  // namespace hostbench
