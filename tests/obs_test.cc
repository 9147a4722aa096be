// Tests for the span observability layer (src/obs/): log-bucketed latency histograms,
// RAII spans and their sink, the metrics registry (JSON + Prometheus), the chrome://tracing
// exporter, the X-macro counter round trip, and the System-level export wiring.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "src/core/midway.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/histogram.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"

namespace midway {
namespace {

// Structural well-formedness: braces and brackets balance outside of strings, and no string
// is left open. Catches the classic generator bugs (trailing commas are caught separately).
bool JsonBalanced(const std::string& s) {
  int depth = 0;
  int bracket = 0;
  bool in_str = false;
  bool esc = false;
  for (char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (--depth < 0) return false;
    } else if (c == '[') {
      ++bracket;
    } else if (c == ']') {
      if (--bracket < 0) return false;
    }
  }
  return depth == 0 && bracket == 0 && !in_str;
}

bool HasTrailingComma(const std::string& s) {
  for (size_t i = 0; i + 1 < s.size(); ++i) {
    if (s[i] != ',') continue;
    size_t j = i + 1;
    while (j < s.size() && (s[j] == ' ' || s[j] == '\n')) ++j;
    if (j < s.size() && (s[j] == ']' || s[j] == '}')) return true;
  }
  return false;
}

// --- Histogram bucket math ----------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  using H = obs::LatencyHistogram;
  EXPECT_EQ(H::BucketOf(0), 0u);  // exact zeros get their own bucket
  EXPECT_EQ(H::BucketOf(1), 1u);
  EXPECT_EQ(H::BucketOf(2), 2u);
  EXPECT_EQ(H::BucketOf(3), 2u);  // [2, 4) -> bucket 2
  EXPECT_EQ(H::BucketOf(4), 3u);
  EXPECT_EQ(H::BucketOf(1023), 10u);
  EXPECT_EQ(H::BucketOf(1024), 11u);
  // Bucket upper bounds are exclusive: a sample lands strictly below its bucket's bound.
  for (uint64_t ns : {0ull, 1ull, 7ull, 100ull, 4096ull, 1234567ull}) {
    const size_t b = H::BucketOf(ns);
    EXPECT_LT(ns, obs::HistogramSnapshot::BucketUpperNs(b)) << ns;
    if (b > 1) {
      EXPECT_GE(ns, obs::HistogramSnapshot::BucketUpperNs(b - 1)) << ns;
    }
  }
}

TEST(HistogramTest, OverflowBucketNeverDropsSamples) {
  obs::LatencyHistogram h;
  const uint64_t huge = uint64_t{1} << 45;  // beyond the largest bounded bucket
  h.Add(huge);
  h.Add(huge * 2);
  const obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.buckets[obs::HistogramSnapshot::kBuckets - 1], 2u);
  EXPECT_EQ(s.max_ns, huge * 2);
  EXPECT_EQ(s.sum_ns, huge * 3);
}

TEST(HistogramTest, MergeSumsCountsAndKeepsMax) {
  obs::LatencyHistogram a;
  obs::LatencyHistogram b;
  for (int i = 0; i < 100; ++i) a.Add(10);
  for (int i = 0; i < 50; ++i) b.Add(uint64_t{1} << 20);
  obs::HistogramSnapshot merged = a.Snapshot();
  merged += b.Snapshot();
  EXPECT_EQ(merged.count, 150u);
  EXPECT_EQ(merged.sum_ns, 100u * 10 + 50u * (uint64_t{1} << 20));
  EXPECT_EQ(merged.max_ns, uint64_t{1} << 20);
  EXPECT_EQ(merged.buckets[obs::LatencyHistogram::BucketOf(10)], 100u);
  EXPECT_EQ(merged.buckets[obs::LatencyHistogram::BucketOf(uint64_t{1} << 20)], 50u);
}

TEST(HistogramTest, PercentilesReportBucketUpperBounds) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.Snapshot().ApproxPercentileNs(0.5), 0u);  // empty -> 0
  for (int i = 0; i < 1000; ++i) h.Add(100);            // bucket 7, upper bound 128
  obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.ApproxPercentileNs(0.50), 128u);
  EXPECT_EQ(s.ApproxPercentileNs(0.99), 128u);
  // One overflow-bucket sample: the tail percentile reports the exact tracked max.
  h.Add(uint64_t{1} << 45);
  s = h.Snapshot();
  EXPECT_EQ(s.ApproxPercentileNs(1.0), uint64_t{1} << 45);
  EXPECT_EQ(s.ApproxPercentileNs(0.50), 128u);
  EXPECT_NEAR(s.MeanNs(), (1000.0 * 100 + static_cast<double>(uint64_t{1} << 45)) / 1001.0,
              1.0);
}

// --- Spans --------------------------------------------------------------------------------

// Captures the hook side of a finished span.
struct CapturingHook : obs::TraceHook {
  struct Call {
    obs::SpanKind kind;
    uint64_t start_ns, dur_ns, object, detail;
  };
  std::vector<Call> calls;
  void OnSpan(obs::SpanKind kind, uint64_t start_ns, uint64_t dur_ns, uint64_t object,
              uint64_t detail) override {
    calls.push_back({kind, start_ns, dur_ns, object, detail});
  }
};

TEST(SpanTest, DisabledSinkRecordsNothing) {
  obs::SpanSink sink;  // never enabled
  {
    obs::Span span(sink, obs::SpanKind::kGrantBuild, 3);
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(sink.SnapshotOf(obs::SpanKind::kGrantBuild).count, 0u);
}

TEST(SpanTest, RecordsDurationAndReachesHook) {
  obs::SpanSink sink;
  CapturingHook hook;
  sink.Enable(&hook);
  const uint64_t outer_start = obs::Span::NowNs();
  {
    obs::Span span(sink, obs::SpanKind::kGrantBuild, 7);
    EXPECT_TRUE(span.active());
    while (obs::Span::NowNs() < span.start_ns() + 1000) {
    }
    span.End(512);
    EXPECT_FALSE(span.active());  // dtor will not record a second time
  }
  const uint64_t outer_dur = obs::Span::NowNs() - outer_start;
  const obs::HistogramSnapshot s = sink.SnapshotOf(obs::SpanKind::kGrantBuild);
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.max_ns, 1000u);
  EXPECT_LE(s.max_ns, outer_dur);
  ASSERT_EQ(hook.calls.size(), 1u);
  EXPECT_EQ(hook.calls[0].kind, obs::SpanKind::kGrantBuild);
  EXPECT_EQ(hook.calls[0].object, 7u);
  EXPECT_EQ(hook.calls[0].detail, 512u);
  EXPECT_GE(hook.calls[0].dur_ns, 1000u);
  EXPECT_GE(hook.calls[0].start_ns, outer_start);
}

TEST(SpanTest, NestedSpanDurationsAreOrdered) {
  obs::SpanSink sink;
  sink.Enable(nullptr);  // histograms only
  {
    obs::Span outer(sink, obs::SpanKind::kGrantBuild);
    {
      obs::Span inner(sink, obs::SpanKind::kCollect);
      while (obs::Span::NowNs() < inner.start_ns() + 1000) {
      }
    }
  }
  const obs::HistogramSnapshot outer_s = sink.SnapshotOf(obs::SpanKind::kGrantBuild);
  const obs::HistogramSnapshot inner_s = sink.SnapshotOf(obs::SpanKind::kCollect);
  ASSERT_EQ(outer_s.count, 1u);
  ASSERT_EQ(inner_s.count, 1u);
  EXPECT_GE(outer_s.max_ns, inner_s.max_ns);  // enclosing span cannot be shorter
}

TEST(SpanTest, CancelDropsTheSpan) {
  obs::SpanSink sink;
  CapturingHook hook;
  sink.Enable(&hook);
  {
    obs::Span span(sink, obs::SpanKind::kWireSend);
    span.Cancel();
  }
  EXPECT_EQ(sink.SnapshotOf(obs::SpanKind::kWireSend).count, 0u);
  EXPECT_TRUE(hook.calls.empty());
}

// --- Counter X-macro round trip -----------------------------------------------------------

TEST(CounterRoundTripTest, ForEachVisitsEveryFieldExactlyOnce) {
  Counters c;
  c.dirtybits_set.store(7, std::memory_order_relaxed);
  c.data_bytes_sent.store(4096, std::memory_order_relaxed);
  c.ec_stale_reads.store(3, std::memory_order_relaxed);  // the last field in the list
  const CounterSnapshot s = CounterSnapshot::From(c);

  std::set<std::string> names;
  size_t fields = 0;
  uint64_t dirtybits = 0, bytes = 0, stale = 0;
  s.ForEach([&](const char* name, uint64_t value, const char* help) {
    ++fields;
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter name " << name;
    EXPECT_NE(std::string(help), "") << name << " has no help text";
    if (std::string(name) == "dirtybits_set") dirtybits = value;
    if (std::string(name) == "data_bytes_sent") bytes = value;
    if (std::string(name) == "ec_stale_reads") stale = value;
  });
  EXPECT_EQ(fields, names.size());
  EXPECT_GE(fields, 48u);  // adding counters is fine; losing one is the regression
  EXPECT_EQ(dirtybits, 7u);
  EXPECT_EQ(bytes, 4096u);
  EXPECT_EQ(stale, 3u);
}

TEST(CounterRoundTripTest, AggregationOpsCoverEveryField) {
  // Regression for the old hand-maintained parallel lists: a field present in the struct
  // but missing from From/+=/DividedBy silently dropped data. With the X-macro, doubling
  // via += and halving via DividedBy must round-trip every field.
  Counters c;
  uint64_t seed = 1;
  // Give every field a distinct nonzero value through the only generic writer we have:
  // From() reads them, so write via the named atomics using ForEach order on a snapshot.
  c.Reset();
  CounterSnapshot base = CounterSnapshot::From(c);
  // All zero after Reset.
  base.ForEach([&](const char*, uint64_t value, const char*) { EXPECT_EQ(value, 0u); });

  c.dirtybits_set.store(seed, std::memory_order_relaxed);
  c.lock_acquires.store(10, std::memory_order_relaxed);
  c.checkpoint_bytes.store(100, std::memory_order_relaxed);
  CounterSnapshot s = CounterSnapshot::From(c);
  CounterSnapshot doubled = s;
  doubled += s;
  const CounterSnapshot halved = doubled.DividedBy(2);
  std::vector<uint64_t> lhs, rhs;
  s.ForEach([&](const char*, uint64_t value, const char*) { lhs.push_back(value); });
  halved.ForEach([&](const char*, uint64_t value, const char*) { rhs.push_back(value); });
  EXPECT_EQ(lhs, rhs);
}

// --- Metrics registry ---------------------------------------------------------------------

obs::MetricsRegistry SampleRegistry() {
  obs::MetricsRegistry registry;
  registry.AddCounter("lock_acquires", 42, "lock acquires");
  registry.AddCounter("per_lock_grants", 7, "grants served", {{"lock", "3"}});
  registry.AddCounter("per_lock_grants", 9, "grants served", {{"lock", "4"}});
  obs::LatencyHistogram h;
  h.Add(100);
  h.Add(200);
  h.Add(100000);
  registry.AddHistogram("span_grant_build_ns", h.Snapshot(), "span duration in nanoseconds");
  return registry;
}

TEST(MetricsTest, JsonSchemaIsStable) {
  const std::string json = SampleRegistry().ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_FALSE(HasTrailingComma(json)) << json;
  EXPECT_NE(json.find("\"schema\":\"midway-metrics/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\":"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"lock_acquires\",\"value\":42"), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"lock\":\"3\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span_grant_build_ns\",\"count\":3"), std::string::npos);
  // Percentiles are derivable fields of the dump, not recomputed by consumers.
  EXPECT_NE(json.find("\"p50_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"le_ns\":"), std::string::npos);
}

TEST(MetricsTest, PrometheusBucketLadderIsCumulative) {
  const std::string prom = SampleRegistry().ToPrometheus();
  // HELP/TYPE appear once per name, even for repeated labeled series.
  size_t help_count = 0;
  size_t pos = 0;
  while ((pos = prom.find("# HELP per_lock_grants ", pos)) != std::string::npos) {
    ++help_count;
    pos += 1;
  }
  EXPECT_EQ(help_count, 1u);
  EXPECT_NE(prom.find("per_lock_grants{lock=\"3\"} 7"), std::string::npos);
  EXPECT_NE(prom.find("per_lock_grants{lock=\"4\"} 9"), std::string::npos);
  // The le ladder is cumulative and ends with +Inf == _count.
  std::vector<uint64_t> ladder;
  pos = 0;
  while ((pos = prom.find("span_grant_build_ns_bucket{le=\"", pos)) != std::string::npos) {
    const size_t close = prom.find("\"} ", pos);
    ladder.push_back(std::strtoull(prom.c_str() + close + 3, nullptr, 10));
    pos = close;
  }
  ASSERT_GE(ladder.size(), 2u);
  for (size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GE(ladder[i], ladder[i - 1]);
  }
  EXPECT_EQ(ladder.back(), 3u);
  EXPECT_NE(prom.find("span_grant_build_ns_count 3"), std::string::npos);
  EXPECT_NE(prom.find("_bucket{le=\"+Inf\"} 3"), std::string::npos);
}

TEST(MetricsTest, WriteFileChoosesFormatBySuffix) {
  const std::string dir = testing::TempDir();
  const std::string prom_path = dir + "/midway_metrics_test.prom";
  const std::string json_path = dir + "/midway_metrics_test.json";
  ASSERT_TRUE(SampleRegistry().WriteFile(prom_path));
  ASSERT_TRUE(SampleRegistry().WriteFile(json_path));
  std::ifstream p(prom_path);
  std::ifstream j(json_path);
  std::string first_prom, first_json;
  std::getline(p, first_prom);
  std::getline(j, first_json);
  EXPECT_EQ(first_prom.rfind("# HELP", 0), 0u) << first_prom;
  EXPECT_EQ(first_json.rfind("{", 0), 0u) << first_json;
  std::filesystem::remove(prom_path);
  std::filesystem::remove(json_path);
}

// --- chrome://tracing export --------------------------------------------------------------

TEST(ChromeTraceTest, EmptyInputIsAWellFormedDocument) {
  const std::string json = obs::ChromeTraceJson({}, 2);
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_FALSE(HasTrailingComma(json)) << json;
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Per-node metadata tracks exist even with no events.
  EXPECT_NE(json.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"node 1\""), std::string::npos);
}

TEST(ChromeTraceTest, SpansAndInstantsRenderWithRebasedTimestamps) {
  std::vector<obs::ChromeTraceEvent> events;
  obs::ChromeTraceEvent span;
  span.node = 0;
  span.name = "grant_build";
  span.start_ns = 5000;
  span.dur_ns = 1500;
  span.object = 3;
  span.peer = 2;
  span.detail = 4096;
  span.detail_label = "bytes";
  events.push_back(span);
  obs::ChromeTraceEvent instant;
  instant.node = 1;
  instant.name = "GrantSent";
  instant.start_ns = 6000;
  events.push_back(instant);

  const std::string json = obs::ChromeTraceJson(events, 2);
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);  // rebased to earliest
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);  // 1000 ns later
  EXPECT_NE(json.find("\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
  EXPECT_NE(json.find("\"peer\":2"), std::string::npos);
}

TEST(ChromeTraceTest, CrossNodeMergeFollowsLamportOrderOnTies) {
  // Wall clocks tie across nodes; the Lamport stamps carry the causal order. The export
  // must emit causally-later events later even when the input arrives shuffled.
  auto make = [](int node, uint64_t lamport, const char* name) {
    obs::ChromeTraceEvent e;
    e.node = node;
    e.lamport = lamport;
    e.name = name;
    e.start_ns = 1000;  // identical wall stamp on purpose
    e.sequence = lamport;
    return e;
  };
  std::vector<obs::ChromeTraceEvent> events{make(1, 3, "ev_c"), make(2, 1, "ev_a"),
                                            make(0, 2, "ev_b")};
  const std::string json = obs::ChromeTraceJson(events, 3);
  const size_t a = json.find("ev_a");
  const size_t b = json.find("ev_b");
  const size_t c = json.find("ev_c");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

// --- System wiring ------------------------------------------------------------------------

void LockAndBarrierWorkload(Runtime& rt) {
  auto data = MakeSharedArray<int64_t>(rt, 16);
  LockId lock = rt.CreateLock();
  rt.Bind(lock, {data.WholeRange()});
  BarrierId done = rt.CreateBarrier();
  rt.BeginParallel();
  for (int i = 0; i < 3; ++i) {
    rt.Acquire(lock);
    data[static_cast<size_t>(rt.self())] = i;
    rt.Release(lock);
  }
  rt.BarrierWait(done);
}

TEST(ObsSystemTest, SpansPopulateHistogramsAndTraceRing) {
  SystemConfig config;
  config.num_procs = 2;
  config.spans = true;
  config.trace_capacity = 4096;
  System system(config);
  system.Run(LockAndBarrierWorkload);

  // Histograms: both nodes crossed a barrier; someone granted and someone waited.
  obs::HistogramSnapshot barrier;
  obs::HistogramSnapshot grant_build;
  obs::HistogramSnapshot acquire_wait;
  for (NodeId n = 0; n < 2; ++n) {
    barrier += system.runtime(n).spans().SnapshotOf(obs::SpanKind::kBarrierWait);
    grant_build += system.runtime(n).spans().SnapshotOf(obs::SpanKind::kGrantBuild);
    acquire_wait += system.runtime(n).spans().SnapshotOf(obs::SpanKind::kAcquireWait);
  }
  EXPECT_GE(barrier.count, 4u);  // app barrier + FinishParallel's final barrier, per node
  EXPECT_GT(grant_build.count, 0u);
  EXPECT_GT(acquire_wait.count, 0u);
  EXPECT_GT(acquire_wait.sum_ns, 0u);

  // Trace ring: span records with nonzero durations landed next to the point events.
  size_t span_records = 0;
  for (NodeId n = 0; n < 2; ++n) {
    for (const TraceRecord& r : system.runtime(n).TraceSnapshot()) {
      if (r.event != TraceEvent::kSpan) continue;
      ++span_records;
      EXPECT_GT(r.dur_ns, 0u);
      EXPECT_GT(r.wall_ns, 0u);
    }
  }
  EXPECT_GT(span_records, 0u);

  // Metrics dump: schema + the merged span histograms with derivable percentiles.
  const std::string json = system.MetricsJson();
  EXPECT_TRUE(JsonBalanced(json));
  EXPECT_NE(json.find("midway-metrics/v1"), std::string::npos);
  EXPECT_NE(json.find("span_acquire_wait_ns"), std::string::npos);
  EXPECT_NE(json.find("span_barrier_wait_ns"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"lock_acquires\",\"value\":6"), std::string::npos);
  EXPECT_NE(json.find("per_lock_acquires"), std::string::npos);

  // Chrome trace: per-node tracks and complete events for the protocol spans.
  const std::string trace = system.ChromeTrace();
  EXPECT_TRUE(JsonBalanced(trace));
  EXPECT_NE(trace.find("\"name\":\"node 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"node 1\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("acquire_wait"), std::string::npos);
  EXPECT_NE(trace.find("grant_build"), std::string::npos);
  EXPECT_NE(trace.find("barrier_wait"), std::string::npos);
}

TEST(ObsSystemTest, SpansOffByDefaultCostNothingAndRecordNothing) {
  SystemConfig config;
  config.num_procs = 2;
  System system(config);
  system.Run(LockAndBarrierWorkload);
  for (NodeId n = 0; n < 2; ++n) {
    for (size_t k = 0; k < obs::kNumSpanKinds; ++k) {
      EXPECT_EQ(system.runtime(n).spans().SnapshotOf(static_cast<obs::SpanKind>(k)).count,
                0u);
    }
    EXPECT_TRUE(system.runtime(n).TraceSnapshot().empty());
  }
  // The metrics dump still has a stable shape: all kinds present, all empty.
  EXPECT_NE(system.MetricsJson().find("span_grant_apply_ns"), std::string::npos);
}

TEST(ObsSystemTest, HistogramsWorkWithoutTraceRing) {
  SystemConfig config;
  config.num_procs = 2;
  config.spans = true;  // no trace_capacity: histograms only
  System system(config);
  system.Run(LockAndBarrierWorkload);
  obs::HistogramSnapshot acquire_wait;
  for (NodeId n = 0; n < 2; ++n) {
    acquire_wait += system.runtime(n).spans().SnapshotOf(obs::SpanKind::kAcquireWait);
    EXPECT_TRUE(system.runtime(n).TraceSnapshot().empty());
  }
  EXPECT_GT(acquire_wait.count, 0u);
}

TEST(ObsSystemTest, TracePathWritesMergedDocumentAtTeardown) {
  const std::string dir = testing::TempDir();
  const std::string trace_path = dir + "/midway_obs_trace_test.json";
  const std::string metrics_path = dir + "/midway_obs_metrics_test.prom";
  {
    SystemConfig config;
    config.num_procs = 4;
    config.trace_path = trace_path;    // implies spans + a default ring
    config.metrics_path = metrics_path;
    System system(config);
    system.Run(LockAndBarrierWorkload);
  }
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path << " was not written";
  std::string trace((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_TRUE(JsonBalanced(trace));
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  for (int n = 0; n < 4; ++n) {
    EXPECT_NE(trace.find("\"name\":\"node " + std::to_string(n) + "\""), std::string::npos);
  }
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  std::ifstream min(metrics_path);
  ASSERT_TRUE(min.good()) << metrics_path << " was not written";
  std::string prom((std::istreambuf_iterator<char>(min)), std::istreambuf_iterator<char>());
  EXPECT_NE(prom.find("# TYPE span_acquire_wait_ns histogram"), std::string::npos);
  std::filesystem::remove(trace_path);
  std::filesystem::remove(metrics_path);
}

TEST(ObsSystemTest, EnvFallbackUniquifiesPaths) {
  const std::string dir = testing::TempDir() + "/midway_obs_env_test";
  std::filesystem::create_directories(dir);
  setenv("MIDWAY_METRICS_PATH", (dir + "/metrics.json").c_str(), 1);
  for (int run = 0; run < 2; ++run) {
    SystemConfig config;
    config.num_procs = 2;
    System system(config);
    system.Run(LockAndBarrierWorkload);
  }
  unsetenv("MIDWAY_METRICS_PATH");
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_NE(entry.path().filename().string().find("metrics."), std::string::npos);
  }
  EXPECT_EQ(files, 2u);  // two Systems, two distinct dumps, no clobbering
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace midway
