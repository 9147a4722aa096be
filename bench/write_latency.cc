// Average write latency by detection strategy — the paper's primary motivation ("we show
// that the new method has low average write latency").
//
// One DSM processor writes a large shared array through the instrumented store path. Two
// passes are timed separately to expose VM-DSM's amortization: the *cold* pass pays one page
// fault (twin + unprotect) per page, the *warm* pass runs at full speed; RT-DSM pays the
// same few-instruction dirtybit cost on every store of both passes (paper §1.1/§2).
#include "bench/bench_util.h"
#include "src/common/stopwatch.h"

namespace midway {
namespace bench {
namespace {

struct LatencyResult {
  double cold_ns = 0;  // first pass: first-touch costs included
  double warm_ns = 0;  // second pass: steady state
  CounterSnapshot totals;
};

LatencyResult MeasureWrites(DetectionMode mode, int elements, int repeats,
                            bool ec_check = false, bool spans = false) {
  SystemConfig config;
  config.mode = mode;
  config.num_procs = 1;
  config.ec_check = ec_check;
  config.spans = spans;
  LatencyResult result;
  System system(config);
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, elements);
    BarrierId done = rt.CreateBarrier();
    // Bind the written range so the benchmark is a *clean* program under the checker — the
    // checker-on row then measures pure shadow-tracking cost, not report formatting.
    // (Blast supports lock-bound data only; its rows run with the checker off.)
    if (mode == DetectionMode::kBlast) {
      rt.BindBarrier(done, {});
    } else {
      rt.BindBarrier(done, {data.WholeRange()});
    }
    // init-phase: untracked raw stores, legal only before BeginParallel
    for (int i = 0; i < elements; ++i) data.raw_mutable()[i] = 0;
    rt.BeginParallel();

    Stopwatch cold;
    for (int i = 0; i < elements; ++i) {
      data[i] = i;  // first touch: VM faults once per page
    }
    result.cold_ns = cold.ElapsedSeconds() * 1e9 / elements;

    Stopwatch warm;
    for (int r = 0; r < repeats; ++r) {
      for (int i = 0; i < elements; ++i) {
        data[i] = i + r;
      }
    }
    result.warm_ns = warm.ElapsedSeconds() * 1e9 / (static_cast<double>(elements) * repeats);
    rt.BarrierWait(done);
  });
  result.totals = system.Total();
  return result;
}

void Run(int argc, char** argv) {
  Options options(argc, argv);
  SuiteOptions opts = SuiteOptions::FromArgs(options);
  const int elements = static_cast<int>(options.GetInt("elements", opts.full ? 1 << 21 : 1 << 18));
  const int repeats = static_cast<int>(options.GetInt("repeats", 4));
  PrintHeader("Average write latency by detection strategy", opts);
  std::printf("elements=%d (%d KB of shared data), warm repeats=%d\n", elements,
              elements * 8 / 1024, repeats);

  const std::vector<DetectionMode> modes = {
      DetectionMode::kStandalone, DetectionMode::kBlast,      DetectionMode::kRt,
      DetectionMode::kRtTwoLevel, DetectionMode::kRtQueue,    DetectionMode::kRtHybrid,
      DetectionMode::kVmSoft,     DetectionMode::kVmSigsegv,
  };

  LatencyResult baseline = MeasureWrites(DetectionMode::kStandalone, elements, repeats);
  Table t({"Strategy", "cold ns/write", "warm ns/write", "warm overhead vs raw", "faults",
           "dirtybits set"});
  std::vector<std::pair<DetectionMode, LatencyResult>> results;
  for (DetectionMode mode : modes) {
    LatencyResult r = mode == DetectionMode::kStandalone
                          ? baseline
                          : MeasureWrites(mode, elements, repeats);
    results.emplace_back(mode, r);
    const double overhead =
        baseline.warm_ns > 0 ? (r.warm_ns / baseline.warm_ns - 1.0) * 100.0 : 0.0;
    t.AddRow({DetectionModeName(mode), Table::Fixed(r.cold_ns, 2), Table::Fixed(r.warm_ns, 2),
              Table::Fixed(overhead, 0) + "%", Table::Num(r.totals.write_faults),
              Table::Num(r.totals.dirtybits_set)});
  }
  std::printf("%s", t.Render().c_str());

  // Entry-consistency checker cost on the hottest path (rt mode). "off" is the compiled-in
  // hooks with the runtime flag disabled — the configuration everyone else in this table
  // ran with; "on" adds the shadow-memory bookkeeping per instrumented store.
  LatencyResult rt_off = MeasureWrites(DetectionMode::kRt, elements, repeats);
  Table ec({"ec-checker (rt mode)", "cold ns/write", "warm ns/write", "warm overhead vs raw"});
  const auto ec_row = [&](const char* name, const LatencyResult& r) {
    const double overhead =
        baseline.warm_ns > 0 ? (r.warm_ns / baseline.warm_ns - 1.0) * 100.0 : 0.0;
    ec.AddRow({name, Table::Fixed(r.cold_ns, 2), Table::Fixed(r.warm_ns, 2),
               Table::Fixed(overhead, 0) + "%"});
  };
  ec_row("off (runtime flag)", rt_off);
#ifdef MIDWAY_EC_CHECK
  LatencyResult rt_on = MeasureWrites(DetectionMode::kRt, elements, repeats, /*ec_check=*/true);
  ec_row("on (--ec-check)", rt_on);
  std::printf("%s", ec.Render().c_str());
  std::printf(
      "Checker hooks are compiled in (MIDWAY_EC_CHECK): the off row pays one predictable\n"
      "branch per NoteWrite; configure with -DMIDWAY_EC_CHECK=OFF to remove even that.\n");
#else
  std::printf("%s", ec.Render().c_str());
  std::printf(
      "Checker hooks are compiled out (-DMIDWAY_EC_CHECK=OFF): the off row IS the release\n"
      "hot path; no checker-on row is available in this build.\n");
#endif

  // Span observability cost on the same path. Spans time protocol sections (acquire wait,
  // grant build, barrier, collect), not individual stores, so the write path itself is
  // untouched; an enabled sink costs one predictable branch per protocol operation. The
  // --check-obs gate holds CI to that claim: spans-on warm latency must stay within 5% of
  // spans-off (best-of-3 to keep a scheduler hiccup from failing the build).
  const auto best_of_3 = [&](bool spans) {
    LatencyResult best = MeasureWrites(DetectionMode::kRt, elements, repeats,
                                       /*ec_check=*/false, spans);
    for (int i = 0; i < 2; ++i) {
      LatencyResult r = MeasureWrites(DetectionMode::kRt, elements, repeats,
                                      /*ec_check=*/false, spans);
      if (r.warm_ns < best.warm_ns) best = r;
    }
    return best;
  };
  const LatencyResult spans_off = best_of_3(false);
  const LatencyResult spans_on = best_of_3(true);
  Table sp({"spans (rt mode)", "cold ns/write", "warm ns/write", "warm overhead vs raw"});
  const auto sp_row = [&](const char* name, const LatencyResult& r) {
    const double overhead =
        baseline.warm_ns > 0 ? (r.warm_ns / baseline.warm_ns - 1.0) * 100.0 : 0.0;
    sp.AddRow({name, Table::Fixed(r.cold_ns, 2), Table::Fixed(r.warm_ns, 2),
               Table::Fixed(overhead, 0) + "%"});
  };
  sp_row("off (default)", spans_off);
  sp_row("on (--trace-out / --metrics-out)", spans_on);
  std::printf("%s", sp.Render().c_str());

  // Machine-readable output for the CI perf-smoke artifact (see EXPERIMENTS.md).
  const std::string json_path = options.GetString("json", "");
  if (!json_path.empty()) {
    JsonWriter w;
    w.BeginObject().Field("schema", "midway-write-latency/v1");
    w.Field("elements", elements).Field("repeats", repeats).Key("modes").BeginArray();
    for (const auto& [mode, r] : results) {
      const double overhead = baseline.warm_ns > 0 ? r.warm_ns / baseline.warm_ns - 1.0 : 0.0;
      w.BeginObject().Field("mode", DetectionModeName(mode));
      w.Field("cold_ns_per_write", r.cold_ns).Field("warm_ns_per_write", r.warm_ns);
      w.Field("warm_overhead_vs_raw", overhead).Field("write_faults", r.totals.write_faults);
      w.Field("dirtybits_set", r.totals.dirtybits_set).EndObject();
    }
    w.EndArray().Key("spans").BeginObject();
    w.Field("off_warm_ns_per_write", spans_off.warm_ns);
    w.Field("on_warm_ns_per_write", spans_on.warm_ns).EndObject().EndObject();
    WriteJsonFile(json_path, w);
  }
  if (options.GetBool("check-obs", false)) {
    const double ratio = spans_off.warm_ns > 0 ? spans_on.warm_ns / spans_off.warm_ns : 1.0;
    if (ratio > 1.05) {
      std::fprintf(stderr,
                   "check-obs FAILED: spans-on warm write latency %.2f ns vs %.2f ns off "
                   "(%.1f%% > 5%% budget)\n",
                   spans_on.warm_ns, spans_off.warm_ns, (ratio - 1.0) * 100.0);
      std::exit(1);
    }
    std::printf("check-obs OK: spans-on warm write latency %.2f ns vs %.2f ns off (%+.1f%%)\n",
                spans_on.warm_ns, spans_off.warm_ns, (ratio - 1.0) * 100.0);
  }

  std::printf(
      "Expected shapes (paper 2/3.1): RT-DSM's warm latency is a small constant multiple of\n"
      "the raw store (the paper's 9-instruction sequence); the update queue costs the most\n"
      "of the RT family (~3x trapping); VM-DSM's warm pass matches raw (full speed after the\n"
      "fault) while its cold pass absorbs one fault per page — the amortization bet that\n"
      "pays off only when pages are written many times between synchronizations.\n");
}

}  // namespace
}  // namespace bench
}  // namespace midway

int main(int argc, char** argv) {
  midway::bench::Run(argc, argv);
  return 0;
}
