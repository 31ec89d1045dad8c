// Documentation cross-checks: the ISA reference must cover every opcode the
// simulator implements, and the trace reference must describe the fields the
// exporters emit. SMTU_DOCS_DIR is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "vsim/isa.hpp"
#include "vsim/profiler.hpp"

namespace smtu::vsim {
namespace {

std::string read_doc(const std::string& name) {
  const std::string path = std::string(SMTU_DOCS_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Docs, IsaReferenceCoversEveryOpcode) {
  const std::string doc = read_doc("ISA.md");
  ASSERT_FALSE(doc.empty());
  for (usize i = 0; i < kOpCount; ++i) {
    const std::string mnemonic = op_name(static_cast<Op>(i));
    ASSERT_NE(mnemonic, "?") << "op " << i << " has no mnemonic";
    // Every instruction appears code-formatted, either bare (`halt`) or as
    // the start of a syntax example (`add rd, rs1, rs2`).
    const bool documented = doc.find("`" + mnemonic + "`") != std::string::npos ||
                            doc.find("`" + mnemonic + " ") != std::string::npos;
    EXPECT_TRUE(documented) << "docs/ISA.md does not document `" << mnemonic << "`";
  }
}

TEST(Docs, IsaReferenceCoversAssemblerAliases) {
  const std::string doc = read_doc("ISA.md");
  for (const char* alias : {"call", "v_ld_idx", "v_st_idx", "v_add_imm", "v_setimm"}) {
    EXPECT_NE(doc.find("`" + std::string(alias) + "`"), std::string::npos)
        << "docs/ISA.md does not mention alias `" << alias << "`";
  }
}

TEST(Docs, TraceReferenceDescribesEventFieldsAndTracks) {
  const std::string doc = read_doc("TRACE.md");
  ASSERT_FALSE(doc.empty());
  // The record's timing fields, as documented for both renderers and the
  // Chrome export.
  for (const char* field : {"`issue`", "`start`", "`first`", "`last`", "`pc`", "`vl`"}) {
    EXPECT_NE(doc.find(field), std::string::npos)
        << "docs/TRACE.md does not document " << field;
  }
  // The four tracks and the truncation marker.
  for (const char* needle : {"scalar", "vmem", "valu", "stm", "dropped", "capacity"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/TRACE.md does not mention " << needle;
  }
  // The worked example stays tied to the shipped demo program.
  EXPECT_NE(doc.find("block_transpose.s"), std::string::npos);
  // The machine-readable truncation marker is documented, and the
  // profiler reference is cross-linked.
  EXPECT_NE(doc.find("\"trace\""), std::string::npos);
  EXPECT_NE(doc.find("PROFILING.md"), std::string::npos);
}

TEST(Docs, ProfilingReferenceCoversEveryBucketAndWorkflow) {
  const std::string doc = read_doc("PROFILING.md");
  ASSERT_FALSE(doc.empty());
  // Every stall reason and busy kind the profiler can emit is defined in
  // the reference, under the exact snake_case key used in JSON/reports.
  for (usize reason = 0; reason < kStallReasonCount; ++reason) {
    const std::string name = stall_reason_name(static_cast<StallReason>(reason));
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/PROFILING.md does not define stall bucket `" << name << "`";
  }
  for (usize kind = 0; kind < kBusyKindCount; ++kind) {
    const std::string name = busy_kind_name(static_cast<BusyKind>(kind));
    EXPECT_NE(doc.find("`" + name + "`"), std::string::npos)
        << "docs/PROFILING.md does not define busy bucket `" << name << "`";
  }
  // The region directive, the schema, the conservation invariant, and the
  // tooling entry points.
  for (const char* needle :
       {";; profile:", "smtu-profile-v1", "== total cycles", "--profile",
        "--profile-speedscope", "prof_report.py", "speedscope",
        "check_repro_determinism.py", "attach_profiler"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/PROFILING.md does not mention " << needle;
  }
}

TEST(Docs, KernelReferenceCoversEveryKernelAndItsRegions) {
  const std::string doc = read_doc("KERNELS.md");
  ASSERT_FALSE(doc.empty());
  // Every kernel source file in src/kernels/ has a section.
  for (const char* kernel :
       {"hism_transpose.cpp", "hism_transpose_pipelined.cpp", "crs_transpose.cpp",
        "dense_transpose.cpp", "shard.cpp", "crs_parallel.cpp", "spmv.cpp",
        "sell_spmv.cpp", "spgemm.cpp"}) {
    EXPECT_NE(doc.find(kernel), std::string::npos)
        << "docs/KERNELS.md does not cover " << kernel;
  }
  // The kernel-suite kernels' profile regions and driving bench.
  for (const char* needle :
       {"`sell_setup`", "`sell_stream`", "`spgemm_setup`", "`spgemm_walk`",
        "`spgemm_transpose`", "`spgemm_gustavson`", "ext_kernel_suite",
        "smtu-kernelsuite-v1", "bench_diff"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/KERNELS.md does not mention " << needle;
  }
  // One decoding runner per kernel, simulate_transpose as the only path
  // that skips the decode, and the bit-identity invariant.
  EXPECT_NE(doc.find("One runner per kernel"), std::string::npos);
  EXPECT_NE(doc.find("`simulate_transpose` is the only path that skips the decode"),
            std::string::npos);
  EXPECT_EQ(doc.find("time_"), std::string::npos) << "docs/KERNELS.md names a timing-only twin";
  EXPECT_NE(doc.find("bit-identical"), std::string::npos);

  // Cross-links: the top-level docs route readers here, and the kernel
  // reference routes on to the format/profiling references.
  const std::string readme = read_doc("../README.md");
  EXPECT_NE(readme.find("docs/KERNELS.md"), std::string::npos)
      << "README.md does not link docs/KERNELS.md";
  const std::string hacking = read_doc("../HACKING.md");
  EXPECT_NE(hacking.find("docs/KERNELS.md"), std::string::npos)
      << "HACKING.md does not link docs/KERNELS.md";
  EXPECT_NE(doc.find("FORMATS.md"), std::string::npos);
  EXPECT_NE(doc.find("PROFILING.md"), std::string::npos);
}

TEST(Docs, FormatReferenceCoversEveryFormat) {
  const std::string doc = read_doc("FORMATS.md");
  ASSERT_FALSE(doc.empty());
  for (const char* format :
       {"COO", "CSR", "Dense", "SELL-C-σ", "Jagged Diagonal", "HiSM"}) {
    EXPECT_NE(doc.find(format), std::string::npos)
        << "docs/FORMATS.md does not cover " << format;
  }
  // Storage accounting stays tied to the code and the ablation bench.
  for (const char* needle : {"storage_bytes", "ablation_storage", "from_coo",
                             "kPadRow", "fill_ratio"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/FORMATS.md does not mention " << needle;
  }
  const std::string readme = read_doc("../README.md");
  EXPECT_NE(readme.find("docs/FORMATS.md"), std::string::npos)
      << "README.md does not link docs/FORMATS.md";
  const std::string hacking = read_doc("../HACKING.md");
  EXPECT_NE(hacking.find("docs/FORMATS.md"), std::string::npos)
      << "HACKING.md does not link docs/FORMATS.md";
}

TEST(Docs, MulticoreReferenceCoversSystemModelAndTooling) {
  const std::string doc = read_doc("MULTICORE.md");
  ASSERT_FALSE(doc.empty());
  // The layered ownership model and its shared/borrowed pieces.
  for (const char* needle : {"MultiCoreSystem", "MemorySystem", "CoreContext",
                             "attach_profiler"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/MULTICORE.md does not mention " << needle;
  }
  // The bank model knobs and the contention/synchronization stall buckets
  // (the exact snake_case keys the profiler emits).
  for (const char* needle : {"`banks`", "`bank_bytes_per_cycle`", "`interleave_bytes`",
                             "`mem_bank_contention`", "`barrier_wait`"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/MULTICORE.md does not define " << needle;
  }
  // Arbitration rules, the primitives, and the kernels.
  for (const char* needle : {"round-robin", "`barrier`", "`amo_add`", "panel", "merge",
                             "rank table", "histogram"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/MULTICORE.md does not describe " << needle;
  }
  // The scaling bench, its schema, its baseline gate, and the rollup tool.
  for (const char* needle : {"ext_multicore_scaling", "smtu-scaling-v1", "bench_diff",
                             "--per-core", "prof_report.py"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/MULTICORE.md does not mention " << needle;
  }
  // The N=1 bit-identity invariant is stated.
  EXPECT_NE(doc.find("bit-identical"), std::string::npos);

  // Cross-links: the top-level docs route readers here.
  const std::string readme = read_doc("../README.md");
  EXPECT_NE(readme.find("docs/MULTICORE.md"), std::string::npos)
      << "README.md does not link docs/MULTICORE.md";
  const std::string hacking = read_doc("../HACKING.md");
  EXPECT_NE(hacking.find("docs/MULTICORE.md"), std::string::npos)
      << "HACKING.md does not link docs/MULTICORE.md";
}

TEST(Docs, TelemetryReferenceCoversMetricsSchemaAndTooling) {
  const std::string doc = read_doc("TELEMETRY.md");
  ASSERT_FALSE(doc.empty());
  // The metric-name suffix scheme and every instrumented component's
  // metrics, under the exact names the registry exports.
  for (const char* needle :
       {"`_total`", "`_us`", "`_pct`", "`_peak`", "pool.tasks_total",
        "pool.task_wait_us", "pool.task_run_us", "pool.queue_depth_peak",
        "pool.worker_util_pct", "cache.program.", "cache.stage.",
        "cache.sim.", "stage.build_us", "bench.item_wall_us",
        "vsim.assemble_us", "vsim.run_us"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/TELEMETRY.md does not mention " << needle;
  }
  // Histogram semantics: bucket geometry and the percentile contract.
  for (const char* needle : {"25%", "octave", "shard", "snapshot()",
                             "upper bound", "TSan"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/TELEMETRY.md does not describe " << needle;
  }
  // The schema, the flags, the renderer, the gating rule, and the
  // determinism enforcement.
  for (const char* needle :
       {"smtu-telemetry-v1", "--telemetry", "--telemetry-json",
        "prof_report.py", "bench_diff", "check_repro_determinism.py",
        "kHostTracePid", "HostSpan", "Adding a metric"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/TELEMETRY.md does not mention " << needle;
  }
  // Off-by-default byte-identity is stated.
  EXPECT_NE(doc.find("byte-identical"), std::string::npos);

  // Cross-links: the top-level docs and the sibling references route here.
  const std::string readme = read_doc("../README.md");
  EXPECT_NE(readme.find("docs/TELEMETRY.md"), std::string::npos)
      << "README.md does not link docs/TELEMETRY.md";
  const std::string hacking = read_doc("../HACKING.md");
  EXPECT_NE(hacking.find("docs/TELEMETRY.md"), std::string::npos)
      << "HACKING.md does not link docs/TELEMETRY.md";
  const std::string profiling = read_doc("PROFILING.md");
  EXPECT_NE(profiling.find("TELEMETRY.md"), std::string::npos)
      << "docs/PROFILING.md does not link docs/TELEMETRY.md";
  const std::string trace = read_doc("TRACE.md");
  EXPECT_NE(trace.find("TELEMETRY.md"), std::string::npos)
      << "docs/TRACE.md does not link docs/TELEMETRY.md";
  // And TELEMETRY.md routes back to the simulated-side references.
  EXPECT_NE(doc.find("PROFILING.md"), std::string::npos);
  EXPECT_NE(doc.find("TRACE.md"), std::string::npos);
}

TEST(Docs, InterpreterInternalsDocumented) {
  // HACKING.md's "Host performance" section explains the threaded-code
  // interpreter: decode-time dispatch binding, the SoA ExecState, the SIMD
  // vector bodies, the golden digests that pin it, and how to add a handler.
  const std::string hacking = read_doc("../HACKING.md");
  for (const char* needle :
       {"Interpreter internals", "ExecState", "opcode_handler", "exec_vector",
        "SMTU_VEC_LOOP", "read_span", "test_interpreter_golden.cpp", "vreg_row"}) {
    EXPECT_NE(hacking.find(needle), std::string::npos)
        << "HACKING.md does not mention " << needle;
  }
  // The old per-opcode instructions named four switches; the recipe now
  // routes through the shared constexpr tables and the handler templates.
  EXPECT_EQ(hacking.find("four switches"), std::string::npos)
      << "HACKING.md still describes the pre-threaded-dispatch recipe";

  // The ISA reference routes readers to the interpreter internals.
  const std::string isa = read_doc("ISA.md");
  for (const char* needle : {"Interpreter internals", "HACKING.md"}) {
    EXPECT_NE(isa.find(needle), std::string::npos)
        << "docs/ISA.md does not mention " << needle;
  }
}

TEST(Docs, ServingReferenceCoversSchemasSchedulerAndGating) {
  const std::string doc = read_doc("SERVING.md");
  ASSERT_FALSE(doc.empty());
  // The driver, its two modes, and both JSON schemas.
  for (const char* needle :
       {"smtu_serve", "--generate", "--replay", "smtu-trace-v1",
        "smtu-serve-v1", "--trace-out", "--json"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/SERVING.md does not mention " << needle;
  }
  // The scheduler semantics: the four outcomes, the knobs behind them, and
  // the service-time model.
  for (const char* needle :
       {"`simulated`", "`coalesced`", "`warm`", "`shed`", "--no-dedup",
        "--no-batching", "--queue-depth", "--closed-loop", "cycles_per_us",
        "replay_vus", "admission"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/SERVING.md does not describe " << needle;
  }
  // The determinism contract and the gating split: _vus gates, wall clock
  // never does, scheduler counters match exactly.
  for (const char* needle :
       {"_vus", "bit-identical", "req_per_sec", "never gate", "exact",
        "bench_diff", "prof_report.py", "check_repro_determinism.py",
        "serve_sweep", "test_serve.cpp"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/SERVING.md does not mention " << needle;
  }
  // The host-side batching story names the caches it leans on.
  for (const char* needle : {"ProgramCache", "MatrixStageCache", "SimCache"}) {
    EXPECT_NE(doc.find(needle), std::string::npos)
        << "docs/SERVING.md does not mention " << needle;
  }

  // Cross-links: the top-level docs route here.
  const std::string readme = read_doc("../README.md");
  EXPECT_NE(readme.find("docs/SERVING.md"), std::string::npos)
      << "README.md does not link docs/SERVING.md";
  const std::string hacking = read_doc("../HACKING.md");
  EXPECT_NE(hacking.find("docs/SERVING.md"), std::string::npos)
      << "HACKING.md does not link docs/SERVING.md";
}

}  // namespace
}  // namespace smtu::vsim
