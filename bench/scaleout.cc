// Scale-out curve: synchronization-op throughput vs node count, over the five benchmark
// applications with hash-sharded lock homes (src/core/shard.h). The point of the curve is
// the coordination structure, not raw speed: with homes and recovery coordination spread by
// consistent hashing, adding nodes must not collapse into a single-home bottleneck the way
// the old node-0 pinning did.
//
// `--check` turns the run into a smoke gate: it exits nonzero when any app fails its golden
// verification at any node count (the 64-node run included), when aggregate sync-op
// throughput at the largest count drops below --min-retention x the per-node throughput at
// the smallest (coordinator collapse), when the send path copies payload bytes (must stay
// zero-copy under RT), or when the TCP probe's receive-side reassembly copies stop looking
// like header fragments and start looking like whole payloads. `--json=<path>` writes
// BENCH_scaleout.json (schema midway-scaleout/v1, documented in EXPERIMENTS.md). Span
// histograms (PR 5) attribute per-phase latency at every node count.
#include <cinttypes>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stopwatch.h"

namespace midway {
namespace bench {
namespace {

// The protocol phases worth attributing at scale (subset of obs::SpanKind: the sync-path
// ones; checkpoint/recovery kinds stay zero in a crash-free bench).
const std::vector<obs::SpanKind>& AttributedSpans() {
  static const std::vector<obs::SpanKind> kinds = {
      obs::SpanKind::kAcquireWait, obs::SpanKind::kGrantBuild, obs::SpanKind::kGrantApply,
      obs::SpanKind::kBarrierWait, obs::SpanKind::kBarrierApply, obs::SpanKind::kCollect,
      obs::SpanKind::kWireSend,
  };
  return kinds;
}

struct AppPoint {
  std::string name;
  bool verified = false;
  double elapsed_sec = 0;
  uint64_t sync_ops = 0;  // lock_acquires + barrier_crossings, summed over nodes
  uint64_t lock_acquires = 0;
  uint64_t barrier_crossings = 0;
};

struct SpanPoint {
  std::string name;
  uint64_t count = 0;
  double mean_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
};

struct CurvePoint {
  uint16_t nodes = 0;
  std::vector<AppPoint> apps;
  std::vector<SpanPoint> spans;
  uint64_t sync_ops = 0;
  double elapsed_sec = 0;         // summed over apps (sequential suite)
  double sync_ops_per_sec = 0;    // aggregate
  double per_node_ops_per_sec = 0;
  uint64_t payload_bytes_copied = 0;
  uint64_t recv_bytes_copied = 0;
  uint64_t wire_bytes = 0;
  bool all_verified = false;
};

CurvePoint RunPoint(uint16_t nodes, TransportKind transport) {
  CurvePoint point;
  point.nodes = nodes;
  point.all_verified = true;
  std::array<obs::HistogramSnapshot, obs::kNumSpanKinds> spans{};
  for (const std::string& app : AppNames()) {
    SystemConfig config;
    config.mode = DetectionMode::kRt;
    config.num_procs = nodes;
    config.transport = transport;
    config.spans = true;
    AppReport report = RunAppByName(app, config, /*full_scale=*/false);
    AppPoint ap;
    ap.name = app;
    ap.verified = report.verified;
    ap.elapsed_sec = report.elapsed_sec;
    ap.lock_acquires = report.total.lock_acquires;
    ap.barrier_crossings = report.total.barrier_crossings;
    ap.sync_ops = ap.lock_acquires + ap.barrier_crossings;
    point.apps.push_back(ap);
    point.sync_ops += ap.sync_ops;
    point.elapsed_sec += ap.elapsed_sec;
    point.payload_bytes_copied += report.total.payload_bytes_copied;
    point.recv_bytes_copied += report.recv_bytes_copied;
    point.wire_bytes += report.wire_bytes;
    point.all_verified = point.all_verified && ap.verified;
    for (size_t k = 0; k < obs::kNumSpanKinds; ++k) spans[k] += report.spans[k];
  }
  point.sync_ops_per_sec =
      point.elapsed_sec > 0 ? static_cast<double>(point.sync_ops) / point.elapsed_sec : 0;
  point.per_node_ops_per_sec = point.sync_ops_per_sec / nodes;
  for (obs::SpanKind kind : AttributedSpans()) {
    const obs::HistogramSnapshot& h = spans[static_cast<size_t>(kind)];
    SpanPoint sp;
    sp.name = obs::SpanKindName(kind);
    sp.count = h.count;
    sp.mean_ns = h.MeanNs();
    sp.p50_ns = h.ApproxPercentileNs(0.5);
    sp.p99_ns = h.ApproxPercentileNs(0.99);
    point.spans.push_back(sp);
  }
  return point;
}

// --- Barrier phase: k-ary tree vs star ----------------------------------------------------
//
// The decentralized barrier's claim is structural: with a fanout-k reduction/broadcast tree
// the root merges k combined enters instead of N-1 singletons, and the merged release is
// built once and relayed, not built N times. Setting barrier_fanout >= N-1 degenerates the
// tree into exactly the old centralized star (every node a child of the root), so the same
// binary measures both shapes and `--check` gates the tree against its own baseline.

struct BarrierPhasePoint {
  uint32_t fanout = 0;
  int rounds = 0;
  bool verified = false;
  double elapsed_sec = 0;
  uint64_t barrier_crossings = 0;
  uint64_t release_builds = 0;
  uint64_t enter_forwards = 0;
  double wait_mean_ns = 0;
  uint64_t wait_p50_ns = 0;
  uint64_t wait_p99_ns = 0;
};

BarrierPhasePoint RunBarrierPhase(uint16_t nodes, uint32_t fanout, int rounds) {
  BarrierPhasePoint point;
  point.fanout = fanout;
  point.rounds = rounds;
  SystemConfig config;
  config.mode = DetectionMode::kRt;
  config.num_procs = nodes;
  config.spans = true;
  config.barrier_fanout = fanout;
  const int n = nodes * 2;
  std::vector<uint8_t> ok(nodes, 0);
  System system(config);
  Stopwatch watch;
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, n);
    BarrierId step = rt.CreateBarrier();
    rt.BindBarrier(step, {data.WholeRange()});
    rt.BeginParallel();
    for (int round = 0; round < rounds; ++round) {
      const int i = rt.self() * 2;
      data[i] = data.Get(i) + round + 1;
      data[i + 1] = data.Get(i + 1) + rt.self();
      rt.BarrierWait(step);
    }
    // Every slice must show every round's writes from every node: the merged releases
    // actually carried the data, round after round.
    bool good = true;
    for (NodeId peer = 0; peer < nodes; ++peer) {
      const int64_t want_even = static_cast<int64_t>(rounds) * (rounds + 1) / 2;
      const int64_t want_odd = static_cast<int64_t>(rounds) * peer;
      good = good && data.Get(peer * 2) == want_even && data.Get(peer * 2 + 1) == want_odd;
    }
    ok[rt.self()] = good ? 1 : 0;
  });
  point.elapsed_sec = watch.ElapsedSeconds();
  point.verified = true;
  for (uint8_t v : ok) point.verified = point.verified && v != 0;
  const CounterSnapshot total = system.Total();
  point.barrier_crossings = total.barrier_crossings;
  point.release_builds = total.barrier_release_builds;
  point.enter_forwards = total.barrier_enter_forwards;
  const obs::HistogramSnapshot wait =
      system.MergedSpan(obs::SpanKind::kBarrierWait);
  point.wait_mean_ns = wait.MeanNs();
  point.wait_p50_ns = wait.ApproxPercentileNs(0.5);
  point.wait_p99_ns = wait.ApproxPercentileNs(0.99);
  return point;
}

std::vector<uint16_t> ParseNodeCounts(const std::string& arg) {
  std::vector<uint16_t> counts;
  std::stringstream ss(arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const int n = std::stoi(tok);
    if (n > 0) counts.push_back(static_cast<uint16_t>(n));
  }
  return counts;
}

void EmitBarrierPhase(JsonWriter& w, const BarrierPhasePoint& p) {
  w.BeginObject().Field("fanout", p.fanout).Field("rounds", p.rounds);
  w.Field("verified", p.verified).Field("elapsed_sec", p.elapsed_sec);
  w.Field("barrier_crossings", p.barrier_crossings).Field("release_builds", p.release_builds);
  w.Field("enter_forwards", p.enter_forwards).Field("wait_mean_ns", p.wait_mean_ns);
  w.Field("wait_p50_ns", p.wait_p50_ns).Field("wait_p99_ns", p.wait_p99_ns).EndObject();
}

void EmitPoint(JsonWriter& w, const CurvePoint& p) {
  w.BeginObject().Field("nodes", p.nodes).Field("sync_ops", p.sync_ops);
  w.Field("elapsed_sec", p.elapsed_sec).Field("sync_ops_per_sec", p.sync_ops_per_sec);
  w.Field("per_node_ops_per_sec", p.per_node_ops_per_sec);
  w.Field("payload_bytes_copied", p.payload_bytes_copied);
  w.Field("recv_bytes_copied", p.recv_bytes_copied).Field("wire_bytes", p.wire_bytes);
  w.Field("all_verified", p.all_verified).Key("apps").BeginArray();
  for (const AppPoint& a : p.apps) {
    w.BeginObject().Field("name", a.name).Field("verified", a.verified);
    w.Field("elapsed_sec", a.elapsed_sec).Field("sync_ops", a.sync_ops);
    w.Field("lock_acquires", a.lock_acquires);
    w.Field("barrier_crossings", a.barrier_crossings).EndObject();
  }
  w.EndArray().Key("spans").BeginArray();
  for (const SpanPoint& s : p.spans) {
    w.BeginObject().Field("name", s.name).Field("count", s.count).Field("mean_ns", s.mean_ns);
    w.Field("p50_ns", s.p50_ns).Field("p99_ns", s.p99_ns).EndObject();
  }
  w.EndArray().EndObject();
}

void WriteJson(const std::string& path, const std::vector<CurvePoint>& curve,
               const CurvePoint* tcp_probe, uint16_t barrier_nodes,
               const BarrierPhasePoint* tree, const BarrierPhasePoint* star,
               bool checks_passed) {
  JsonWriter w;
  w.BeginObject().Field("schema", "midway-scaleout/v1").Field("mode", "RT");
  w.Key("points").BeginArray();
  for (const CurvePoint& p : curve) EmitPoint(w, p);
  w.EndArray();
  if (tcp_probe != nullptr) {
    w.Key("tcp_probe");
    EmitPoint(w, *tcp_probe);
  }
  if (tree != nullptr && star != nullptr) {
    w.Key("barrier_phase").BeginObject().Field("nodes", barrier_nodes).Key("tree");
    EmitBarrierPhase(w, *tree);
    w.Key("star");
    EmitBarrierPhase(w, *star);
    w.Field("wait_mean_ratio",
            star->wait_mean_ns > 0 ? tree->wait_mean_ns / star->wait_mean_ns : 0.0);
    w.Field("wait_p99_ratio",
            star->wait_p99_ns > 0
                ? static_cast<double>(tree->wait_p99_ns) / static_cast<double>(star->wait_p99_ns)
                : 0.0);
    w.EndObject();
  }
  w.Field("checks_passed", checks_passed).EndObject();
  WriteJsonFile(path, w);
}

void Run(int argc, char** argv) {
  Options options(argc, argv);
  SuiteOptions opts = SuiteOptions::FromArgs(options);
  const bool check = options.GetBool("check");
  const double min_retention = options.GetDouble("min-retention", 0.8);
  const std::vector<uint16_t> counts =
      ParseNodeCounts(options.GetString("nodes", "8,16,32,64"));
  const bool tcp = options.GetBool("tcp-probe", true);
  PrintHeader("Scale-out: sync-op throughput vs node count", opts);

  std::vector<CurvePoint> curve;
  Table t({"nodes", "sync ops", "elapsed s", "ops/s", "ops/s/node", "payload copied",
           "recv copied", "verified"});
  for (uint16_t nodes : counts) {
    CurvePoint p = RunPoint(nodes, TransportKind::kInProc);
    t.AddRow({std::to_string(p.nodes), Table::Num(p.sync_ops), Table::Fixed(p.elapsed_sec, 3),
              Table::Fixed(p.sync_ops_per_sec, 0), Table::Fixed(p.per_node_ops_per_sec, 0),
              Table::Num(p.payload_bytes_copied), Table::Num(p.recv_bytes_copied),
              p.all_verified ? "yes" : "NO"});
    curve.push_back(std::move(p));
  }
  std::printf("%s", t.Render().c_str());

  // Per-phase latency attribution at the largest node count.
  if (!curve.empty()) {
    const CurvePoint& top = curve.back();
    Table st({"span @" + std::to_string(top.nodes) + " nodes", "count", "mean us", "p50 us",
              "p99 us"});
    for (const SpanPoint& s : top.spans) {
      st.AddRow({s.name, Table::Num(s.count), Table::Fixed(s.mean_ns / 1e3, 1),
                 Table::Fixed(s.p50_ns / 1e3, 1), Table::Fixed(s.p99_ns / 1e3, 1)});
    }
    std::printf("%s\n", st.Render().c_str());
  }

  // TCP probe: one small run over real sockets so the receive-side copy counter measures
  // the event loop's frame reassembly (inproc transports hand over owned packets; their
  // recv_bytes_copied is zero by construction).
  CurvePoint tcp_probe;
  if (tcp) {
    tcp_probe = RunPoint(/*nodes=*/8, TransportKind::kTcp);
    std::printf("tcp probe @8 nodes: wire %" PRIu64 " B, recv reassembly copies %" PRIu64
                " B (%.2f%%), verified %s\n\n",
                tcp_probe.wire_bytes, tcp_probe.recv_bytes_copied,
                tcp_probe.wire_bytes > 0
                    ? 100.0 * static_cast<double>(tcp_probe.recv_bytes_copied) /
                          static_cast<double>(tcp_probe.wire_bytes)
                    : 0.0,
                tcp_probe.all_verified ? "yes" : "NO");
  }

  // Barrier phase at the largest node count: same workload, tree fanout vs the degenerate
  // star (fanout >= N-1 reproduces the old centralized manager's topology exactly).
  const int barrier_rounds = options.GetInt("barrier-rounds", 64);
  // The mean is the primary latency gate: it is continuous, so "tree no worse than star"
  // holds run-to-run within scheduling noise. The p99 comes from power-of-2 histogram
  // buckets, so two statistically-equal distributions can read a 2x apart when samples
  // straddle a boundary — its gate gets exactly one bucket of headroom.
  const double max_mean_ratio = options.GetDouble("max-barrier-mean-ratio", 1.25);
  const double max_p99_ratio = options.GetDouble("max-barrier-p99-ratio", 2.0);
  const uint16_t barrier_nodes = counts.empty() ? 64 : counts.back();
  const uint32_t tree_fanout = SystemConfig{}.barrier_fanout;
  // The runtime's internal startup barrier (BeginParallel) rides the same tree and shows
  // up in the counters; a zero-round run isolates that fixed cost so the gate can demand
  // exactly one merge per application round.
  const BarrierPhasePoint base = RunBarrierPhase(barrier_nodes, tree_fanout, 0);
  BarrierPhasePoint tree = RunBarrierPhase(barrier_nodes, tree_fanout, barrier_rounds);
  BarrierPhasePoint star = RunBarrierPhase(barrier_nodes, barrier_nodes, barrier_rounds);
  Table bt({"barrier @" + std::to_string(barrier_nodes) + " nodes", "rounds", "builds",
            "forwards", "wait mean us", "wait p50 us", "wait p99 us", "verified"});
  for (const BarrierPhasePoint* p : {&tree, &star}) {
    bt.AddRow({p == &tree ? "tree (k=" + std::to_string(tree_fanout) + ")" : "star",
               Table::Num(static_cast<uint64_t>(p->rounds)), Table::Num(p->release_builds),
               Table::Num(p->enter_forwards), Table::Fixed(p->wait_mean_ns / 1e3, 1),
               Table::Fixed(p->wait_p50_ns / 1e3, 1), Table::Fixed(p->wait_p99_ns / 1e3, 1),
               p->verified ? "yes" : "NO"});
  }
  std::printf("%s\n", bt.Render().c_str());

  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures;
  };
  for (const BarrierPhasePoint* p : {&tree, &star}) {
    const char* shape = p == &tree ? "tree" : "star";
    if (!p->verified) {
      fail(std::string("barrier phase (") + shape + "): golden verification failed");
    }
    // Merged exactly once: net of the startup barrier's fixed cost, one release build per
    // round, everyone crossing every round.
    const uint64_t builds = p->release_builds - base.release_builds;
    const uint64_t crossings = p->barrier_crossings - base.barrier_crossings;
    if (builds != static_cast<uint64_t>(p->rounds)) {
      fail(std::string("barrier phase (") + shape + "): " + std::to_string(builds) +
           " release builds for " + std::to_string(p->rounds) +
           " rounds (want exactly one merge per round)");
    }
    if (crossings != static_cast<uint64_t>(p->rounds) * static_cast<uint64_t>(barrier_nodes)) {
      fail(std::string("barrier phase (") + shape + "): " + std::to_string(crossings) +
           " crossings, want " +
           std::to_string(static_cast<uint64_t>(p->rounds) * barrier_nodes));
    }
  }
  if (star.wait_mean_ns > 0 && tree.wait_mean_ns > max_mean_ratio * star.wait_mean_ns) {
    fail("barrier phase: tree wait mean " + std::to_string(tree.wait_mean_ns) + " ns > " +
         std::to_string(max_mean_ratio) + " x star baseline " +
         std::to_string(star.wait_mean_ns) + " ns");
  }
  if (star.wait_p99_ns > 0 &&
      static_cast<double>(tree.wait_p99_ns) >
          max_p99_ratio * static_cast<double>(star.wait_p99_ns)) {
    fail("barrier phase: tree wait p99 " + std::to_string(tree.wait_p99_ns) + " ns > " +
         std::to_string(max_p99_ratio) + " x star baseline " +
         std::to_string(star.wait_p99_ns) + " ns");
  }
  for (const CurvePoint& p : curve) {
    if (!p.all_verified) {
      fail(std::to_string(p.nodes) + " nodes: app verification failed");
    }
    if (p.payload_bytes_copied != 0) {
      fail(std::to_string(p.nodes) + " nodes: send path copied " +
           std::to_string(p.payload_bytes_copied) + " payload bytes (want 0 under RT)");
    }
    if (p.recv_bytes_copied != 0) {
      fail(std::to_string(p.nodes) + " nodes: inproc transport reported " +
           std::to_string(p.recv_bytes_copied) + " receive-copy bytes (want 0)");
    }
  }
  if (curve.size() >= 2) {
    const CurvePoint& lo = curve.front();
    const CurvePoint& hi = curve.back();
    // The collapse gate: aggregate throughput at the largest count must retain at least
    // min-retention of the smallest count's per-node throughput. A coordination hot spot
    // (all homes on one node) fails this by orders of magnitude; mere per-node slowdown
    // from oversubscription does not.
    const double floor = min_retention * lo.per_node_ops_per_sec;
    if (hi.sync_ops_per_sec < floor) {
      fail("throughput collapse: " + std::to_string(hi.sync_ops_per_sec) + " ops/s at " +
           std::to_string(hi.nodes) + " nodes < " + std::to_string(floor) + " (" +
           std::to_string(min_retention) + " x per-node throughput at " +
           std::to_string(lo.nodes) + ")");
    }
  }
  if (tcp) {
    if (!tcp_probe.all_verified) fail("tcp probe: app verification failed");
    // Reassembly copies are fragments of frames that straddled a 64 KiB pooled buffer —
    // a boundary tax, not a per-byte cost. If they rival the wire volume, the zero-copy
    // receive path has regressed into a copy-everything path.
    if (tcp_probe.recv_bytes_copied * 4 > tcp_probe.wire_bytes) {
      fail("tcp probe: receive path copied " + std::to_string(tcp_probe.recv_bytes_copied) +
           " of " + std::to_string(tcp_probe.wire_bytes) +
           " wire bytes; straddle reassembly should be a small fraction");
    }
  }

  const std::string json = options.GetString("json", "");
  if (!json.empty()) {
    WriteJson(json, curve, tcp ? &tcp_probe : nullptr, barrier_nodes, &tree, &star,
              failures == 0);
  }
  if (check) {
    if (failures > 0) {
      std::fprintf(stderr, "scaleout --check: %d failure(s)\n", failures);
      std::exit(1);
    }
    std::printf("scaleout --check: all gates passed\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace midway

int main(int argc, char** argv) {
  midway::bench::Run(argc, argv);
  return 0;
}
