// End-to-end synchronization-time data path benchmark: diff throughput (SIMD dispatch vs
// the scalar reference), summary-bitmap collection, and the full collect -> serialize ->
// deliver -> apply pipeline over five app-like binding shapes.
//
// `--check` turns the run into a perf-smoke gate: it exits nonzero when the pipeline
// produces wrong bytes, when the send fast path copies payload bytes (it must be
// zero-copy), when wire overhead per update regresses past --max-overhead, or when the
// vectorized diff fails to clear --min-speedup on sparse/dense pages (the median of
// kDiffRepeats same-input ratios; only enforced where AVX2 is actually available). `--json=<path>` writes BENCH_sync_path.json
// (schema midway-sync-path/v1, documented in EXPERIMENTS.md).
#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/core/protocol.h"
#include "src/core/strategy.h"
#include "src/mem/diff.h"
#include "src/mem/dirtybit_table.h"
#include "src/mem/payload_arena.h"

namespace midway {
namespace bench {
namespace {

using Page = std::vector<std::byte>;

// --- Diff throughput ----------------------------------------------------------------------

struct PagePair {
  Page current;
  Page twin;
};

// Dirty-byte layouts chosen to stress the three mask paths: all-clean chunks (fast skip),
// mixed chunks (transition scan), and all-dirty chunks (run continuation).
PagePair MakePage(const std::string& shape, size_t bytes, SplitMix64* rng) {
  PagePair p;
  p.twin.resize(bytes);
  for (auto& b : p.twin) b = static_cast<std::byte>(rng->Next());
  p.current = p.twin;
  auto touch = [&](size_t at, size_t len) {
    for (size_t i = at; i < std::min(bytes, at + len); ++i) {
      p.current[i] = static_cast<std::byte>(static_cast<uint8_t>(p.current[i]) + 1);
    }
  };
  if (shape == "sparse") {
    // A handful of short scattered runs; most chunks are clean.
    for (int i = 0; i < 8; ++i) {
      touch(rng->NextBounded(bytes), 16 + rng->NextBounded(48));
    }
  } else if (shape == "dense") {
    // Most of the page dirty (7 of every 8 chunks), clean holes every 1 KB — the shape a
    // page takes after a heavy write phase, where most chunks hit the all-dirty fast path.
    for (size_t at = 0; at < bytes; at += 1024) touch(at, 896);
  } else if (shape == "alternating") {
    // Every other 64-byte block dirty: every chunk is mixed — the adversarial worst case
    // for the mask-transition scan (reported but not gated; see --min-speedup).
    for (size_t at = 0; at < bytes; at += 128) touch(at, 64);
  } else if (shape == "full") {
    touch(0, bytes);
  }  // "clean": identical pages
  return p;
}

struct DiffRow {
  std::string impl;
  std::string shape;
  size_t page_bytes = 0;
  double gbps = 0;     // median over kDiffRepeats
  double speedup = 0;  // vs scalar on the same input: median of the per-repeat ratios
};

// Each cell is measured this many times, every impl once per repeat, so a ratio compares
// measurements taken back to back; the median ratio is what --check gates on.
constexpr int kDiffRepeats = 5;

double MeasureDiffSeconds(DiffImpl impl, const PagePair& p, int iters) {
  // Reuse one run vector across iterations, as VmStrategy::Collect does across pages, so
  // the measurement is diffing cost rather than per-call allocator traffic.
  std::vector<DiffRun> runs;
  Stopwatch sw;
  for (int i = 0; i < iters; ++i) {
    ComputeDiffWithInto(impl, p.current, p.twin, &runs);
    // Keep the result alive so the compiler cannot elide the work.
    if (!runs.empty() && runs[0].length == 0xFFFFFFFF) std::abort();
  }
  return sw.ElapsedSeconds();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

std::vector<DiffRow> RunDiffSection(bool full) {
  SplitMix64 rng(0x5EED0001);
  const std::vector<size_t> sizes = {4096, 65536};
  const std::vector<std::string> shapes = {"clean", "sparse", "dense", "alternating", "full"};
  std::vector<DiffImpl> impls = {DiffImpl::kScalar};
  for (DiffImpl impl : {DiffImpl::kSwar, DiffImpl::kSse2, DiffImpl::kAvx2}) {
    if (DiffImplAvailable(impl)) impls.push_back(impl);
  }

  std::vector<DiffRow> rows;
  Table t({"Diff", "page", "impl", "GB/s", "speedup vs scalar"});
  for (size_t bytes : sizes) {
    for (const std::string& shape : shapes) {
      PagePair p = MakePage(shape, bytes, &rng);
      // Sanity: every impl must agree with the scalar reference on this exact input.
      const auto reference = ComputeDiffScalar(p.current, p.twin);
      // Calibrate each impl once: aim for ~20ms (full) / ~5ms (fast) per measurement.
      const double budget = full ? 0.02 : 0.005;
      std::vector<int> iters(impls.size(), 16);
      for (size_t k = 0; k < impls.size(); ++k) {
        MIDWAY_CHECK(ComputeDiffWith(impls[k], p.current, p.twin) == reference)
            << " " << DiffImplName(impls[k]) << " diverges from scalar on " << shape;
        while (MeasureDiffSeconds(impls[k], p, iters[k]) < budget) iters[k] *= 4;
      }
      // gbps[k][rep], then the ratio to scalar (impls[0]) within the same repeat.
      std::vector<std::vector<double>> gbps(impls.size());
      std::vector<std::vector<double>> ratio(impls.size());
      for (int rep = 0; rep < kDiffRepeats; ++rep) {
        for (size_t k = 0; k < impls.size(); ++k) {
          const double secs = MeasureDiffSeconds(impls[k], p, iters[k]);
          gbps[k].push_back(static_cast<double>(bytes) * iters[k] / secs / 1e9);
          ratio[k].push_back(gbps[k].back() / gbps[0].back());
        }
      }
      for (size_t k = 0; k < impls.size(); ++k) {
        DiffRow row;
        row.impl = DiffImplName(impls[k]);
        row.shape = shape;
        row.page_bytes = bytes;
        row.gbps = Median(gbps[k]);
        row.speedup = Median(ratio[k]);
        rows.push_back(row);
        t.AddRow({shape, std::to_string(bytes), row.impl, Table::Fixed(row.gbps, 2),
                  Table::Fixed(row.speedup, 2) + "x"});
      }
    }
  }
  std::printf("%s", t.Render().c_str());
  std::printf("medians of %d repeats; each speedup is the median of per-repeat ratios\n",
              kDiffRepeats);
  std::printf("best impl on this CPU: %s\n\n", DiffImplName(BestDiffImpl()));
  return rows;
}

// --- Summary-bitmap collection ------------------------------------------------------------

struct CollectRow {
  std::string pattern;
  size_t lines = 0;
  size_t dirty = 0;
  double ns_per_line = 0;
  uint64_t summary_skips = 0;  // per scan
};

std::vector<CollectRow> RunCollectSection(bool full) {
  const size_t lines = full ? (1 << 20) : (1 << 17);
  SplitMix64 rng(0x5EED0002);
  struct Pattern {
    std::string name;
    size_t dirty;
    bool strided;  // one dirty line per summary word (worst case) vs random placement
  };
  const std::vector<Pattern> patterns = {
      {"all-clean rescan", 0, false},
      {"sparse (1/4096 dirty)", lines / 4096, false},
      {"strided (1 per summary word)", lines / 64, true},
      {"dense (1/4 dirty)", lines / 4, false},
  };
  std::vector<CollectRow> rows;
  Table t({"Collect", "lines", "dirty", "ns/line", "summary words skipped"});
  for (const Pattern& pat : patterns) {
    DirtybitTable table(lines, /*line_shift=*/6);
    for (size_t i = 0; i < pat.dirty; ++i) {
      table.MarkDirty(pat.strided ? i * 64 : rng.NextBounded(lines));
    }
    std::vector<DirtybitTable::DirtyLine> out;
    // First scan stamps sentinels; timed scans then measure the steady rescan cost the
    // communication thread pays at every synchronization point.
    DirtybitTable::ScanStats stats = table.CollectRange(0, lines - 1, 0, 1, &out);
    const int iters = 32;
    Stopwatch sw;
    for (int i = 0; i < iters; ++i) {
      out.clear();
      stats = table.CollectRange(0, lines - 1, /*since=*/1, /*stamp_ts=*/2, &out);
    }
    const double secs = sw.ElapsedSeconds();
    CollectRow row;
    row.pattern = pat.name;
    row.lines = lines;
    row.dirty = pat.dirty;
    row.ns_per_line = secs * 1e9 / (static_cast<double>(lines) * iters);
    row.summary_skips = stats.summary_skips;
    rows.push_back(row);
    t.AddRow({pat.name, std::to_string(lines), std::to_string(pat.dirty),
              Table::Fixed(row.ns_per_line, 3), Table::Num(row.summary_skips)});
  }
  std::printf("%s", t.Render().c_str());
  std::printf("a skipped summary word avoids 64 slot loads; the all-clean rescan is the\n"
              "common case at barriers once stamped lines age out\n\n");
  return rows;
}

// --- End-to-end pipeline ------------------------------------------------------------------

// One DSM processor's worth of strategy state, standing in for a node.
struct Node {
  SystemConfig config;
  RegionTable regions;
  Counters counters;
  std::unique_ptr<DetectionStrategy> strategy;
  Region* region = nullptr;

  explicit Node(size_t bytes) {
    config.mode = DetectionMode::kRt;
    strategy = MakeStrategy(config, &regions, &counters);
    region = regions.Create(bytes, /*line_size=*/64, /*shared=*/true);
    strategy->AttachRegion(region);
    strategy->OnBeginParallel();
  }

  void Write(uint32_t offset, uint32_t len, uint8_t seed) {
    strategy->NoteWrite(region->header(), offset, len);
    std::byte* dst = region->data() + offset;
    for (uint32_t i = 0; i < len; ++i) dst[i] = static_cast<std::byte>(seed + i);
  }
};

// Write patterns shaped like the five applications' bound data (paper §4).
void WriteShape(Node* node, const std::string& app, uint32_t round, SplitMix64* rng) {
  const auto size = static_cast<uint32_t>(node->region->size());
  const auto seed = static_cast<uint8_t>(round * 31);
  if (app == "water") {
    // Scattered per-molecule records.
    for (int i = 0; i < 512; ++i) {
      node->Write(static_cast<uint32_t>(rng->NextBounded(size - 24)), 24, seed);
    }
  } else if (app == "quicksort") {
    // One contiguous half of the array.
    node->Write(round % 2 == 0 ? 0 : size / 2, size / 2, seed);
  } else if (app == "matmul") {
    // A block of each row: strided 64-byte segments.
    for (uint32_t at = 0; at + 64 <= size; at += 512) node->Write(at, 64, seed);
  } else if (app == "sor") {
    // Alternate 256-byte rows (red/black sweep).
    for (uint32_t row = round % 2; row * 256 + 256 <= size; row += 2) {
      node->Write(row * 256, 256, seed);
    }
  } else if (app == "cholesky") {
    // Shrinking column segments.
    for (uint32_t col = round % 8; col * 2048 + 128 <= size; col += 8) {
      node->Write(col * 2048, 128, seed);
    }
  }
}

struct E2eRow {
  std::string app;
  uint64_t updates = 0;
  uint64_t payload_bytes = 0;
  uint64_t wire_bytes = 0;
  double overhead_per_update = 0;
  uint64_t send_bytes_copied = 0;  // payload bytes memcpy'd on the send path (want 0)
  double mbps = 0;
  bool correct = false;
};

std::vector<E2eRow> RunE2eSection(bool full) {
  const size_t region_bytes = full ? (1 << 20) : (1 << 18);
  const int rounds = full ? 32 : 8;
  std::vector<E2eRow> rows;
  Table t({"E2E (RT)", "updates", "payload KB", "wire KB", "ovh B/upd", "copied B", "MB/s",
           "verified"});
  for (const std::string& app : AppNames()) {
    SplitMix64 rng(0x5EED0003);
    Node sender(region_bytes);
    Node receiver(region_bytes);
    Binding binding;
    binding.ranges = {
        GlobalRange{{sender.region->id(), 0}, static_cast<uint32_t>(region_bytes)}};
    E2eRow row;
    row.app = app;
    Stopwatch sw;
    for (int round = 0; round < rounds; ++round) {
      WriteShape(&sender, app, static_cast<uint32_t>(round), &rng);
      const auto ts = static_cast<uint64_t>(round) + 1;
      UpdateSet set;
      sender.strategy->Collect(binding, /*since=*/ts - 1, /*stamp_ts=*/ts, &set);

      // Send side: collect + serialize must not copy a single payload byte — entries view
      // region memory and the writer records them as external segments.
      const uint64_t copied_before = PayloadBytesCopied();
      WireWriter w;
      w.EnableZeroCopy();
      EncodeUpdateSet(&w, set);
      std::vector<std::byte> frame = w.Take();  // the transport's single gather (writev)
      row.send_bytes_copied += PayloadBytesCopied() - copied_before;

      row.updates += set.size();
      row.payload_bytes += UpdateBytes(set);
      row.wire_bytes += frame.size();

      // Receive side: decode (copies once into arena chunks) and apply.
      WireReader r(frame);
      UpdateSet decoded;
      MIDWAY_CHECK(DecodeUpdateSet(&r, &decoded));
      receiver.strategy->Apply(decoded);
    }
    const double secs = sw.ElapsedSeconds();
    row.correct = std::memcmp(sender.region->data(), receiver.region->data(),
                              region_bytes) == 0;
    row.overhead_per_update =
        row.updates > 0
            ? static_cast<double>(row.wire_bytes - row.payload_bytes) / row.updates
            : 0;
    row.mbps = row.wire_bytes / secs / 1e6;
    rows.push_back(row);
    t.AddRow({app, Table::Num(row.updates), Table::Num(row.payload_bytes / 1024),
              Table::Num(row.wire_bytes / 1024), Table::Fixed(row.overhead_per_update, 1),
              Table::Num(row.send_bytes_copied), Table::Fixed(row.mbps, 1),
              row.correct ? "yes" : "NO"});
  }
  std::printf("%s", t.Render().c_str());
  std::printf("copied B counts payload bytes memcpy'd between collect and the transport\n"
              "gather; 0 means every payload byte traveled region memory -> kernel\n\n");
  return rows;
}

// --- JSON + check gate --------------------------------------------------------------------

void WriteJson(const std::string& path, const std::vector<DiffRow>& diff,
               const std::vector<CollectRow>& collect, const std::vector<E2eRow>& e2e,
               bool checks_passed) {
  JsonWriter w;
  w.BeginObject().Field("schema", "midway-sync-path/v1");
  w.Field("best_diff_impl", DiffImplName(BestDiffImpl())).Key("diff").BeginArray();
  for (const DiffRow& r : diff) {
    w.BeginObject().Field("impl", r.impl).Field("shape", r.shape);
    w.Field("page_bytes", r.page_bytes).Field("gbps", r.gbps);
    w.Field("speedup_vs_scalar", r.speedup).EndObject();
  }
  w.EndArray().Key("collect").BeginArray();
  for (const CollectRow& r : collect) {
    w.BeginObject().Field("pattern", r.pattern).Field("lines", r.lines);
    w.Field("dirty", r.dirty).Field("ns_per_line", r.ns_per_line);
    w.Field("summary_word_skips", r.summary_skips).EndObject();
  }
  w.EndArray().Key("e2e").BeginArray();
  for (const E2eRow& r : e2e) {
    w.BeginObject().Field("app", r.app).Field("updates", r.updates);
    w.Field("payload_bytes", r.payload_bytes).Field("wire_bytes", r.wire_bytes);
    w.Field("overhead_bytes_per_update", r.overhead_per_update);
    w.Field("send_payload_bytes_copied", r.send_bytes_copied);
    w.Field("throughput_mbps", r.mbps).Field("verified", r.correct).EndObject();
  }
  w.EndArray().Field("checks_passed", checks_passed).EndObject();
  WriteJsonFile(path, w);
}

void Run(int argc, char** argv) {
  Options options(argc, argv);
  SuiteOptions opts = SuiteOptions::FromArgs(options);
  const bool check = options.GetBool("check");
  // Measured: 5-6 B/update on the multi-entry shapes; quicksort ships one update per set,
  // so the set's count and flags bytes land on it and it reads exactly 8.0 (deterministic).
  const double max_overhead = options.GetDouble("max-overhead", 8.0);
  const double min_speedup = options.GetDouble("min-speedup", 4.0);
  PrintHeader("Synchronization-time data path", opts);

  std::vector<DiffRow> diff = RunDiffSection(opts.full);
  std::vector<CollectRow> collect = RunCollectSection(opts.full);
  std::vector<E2eRow> e2e = RunE2eSection(opts.full);

  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failures;
  };
  for (const E2eRow& r : e2e) {
    if (!r.correct) fail(r.app + ": receiver bytes diverge from sender");
    if (r.send_bytes_copied != 0) {
      fail(r.app + ": send path copied " + std::to_string(r.send_bytes_copied) +
           " payload bytes (want 0)");
    }
    if (r.overhead_per_update > max_overhead) {
      fail(r.app + ": wire overhead " + std::to_string(r.overhead_per_update) +
           " bytes/update exceeds " + std::to_string(max_overhead));
    }
  }
  // The >= 4x diff criterion is only meaningful where a vector unit exists; SWAR alone on
  // sparse pages clears ~4x but is not guaranteed to on every compiler.
  if (DiffImplAvailable(DiffImpl::kAvx2)) {
    for (const DiffRow& r : diff) {
      if (r.impl == DiffImplName(DiffImpl::kAvx2) &&
          (r.shape == "sparse" || r.shape == "dense") && r.speedup < min_speedup) {
        fail("diff " + r.shape + "/" + std::to_string(r.page_bytes) + ": " + r.impl +
             " speedup " + std::to_string(r.speedup) + "x below " +
             std::to_string(min_speedup) + "x");
      }
    }
  }

  const std::string json = options.GetString("json", "");
  if (!json.empty()) WriteJson(json, diff, collect, e2e, failures == 0);
  if (check) {
    if (failures > 0) {
      std::fprintf(stderr, "sync_path --check: %d failure(s)\n", failures);
      std::exit(1);
    }
    std::printf("sync_path --check: all gates passed\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace midway

int main(int argc, char** argv) {
  midway::bench::Run(argc, argv);
  return 0;
}
