// perfbench_worker: the measuring half of the repository benchmark (perfbench/run.py drives
// it). Each invocation runs one phase for one workload and prints one JSON object per line
// on stdout, flushed as it goes, so run.py can account for a solve that crashes or hangs
// the process:
//
//   solve --workload W --seed S --first I --seconds T [--traced-every K] [--setups N]
//       Closed loop: solve after solve, back to back, until T seconds have passed (at least
//       one). Solve i uses inputs derived from (S, i). Every K-th solve (K > 0) runs with
//       spans on; K = 0 traces none. A {"event":"start"} line precedes every solve and a
//       {"event":"solve"} line follows it, carrying the application's own verdict against
//       its sequential reference, the timings, the process's peak resident set during the
//       solve, every counter, and the span histograms. After each solve, N set-ups are timed
//       (System construction with the workload's config, Run() up to and including the
//       first BeginParallel, teardown), one {"event":"setup"} line each, so set-up samples
//       spread over the whole run like the solves do.
//       --crash-index I aborts the process as solve I starts (the self-test uses it).
//   probe --workload W --seed S
//       Single-layer probes timed from outside: a 1-processor standalone solve of the same
//       input, warm instrumented SharedArray::Set loops against raw store loops, the first
//       store to each protected page, and a one-frame Transport::Send/Recv ping-pong.
//
// --tiny shrinks every input (used by the self-test).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/apps.h"
#include "src/common/options.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/core/midway.h"
#include "src/net/inproc_transport.h"

namespace midway {
namespace perfbench {
namespace {

enum class App { kQuicksort, kSor };

// Every workload uses the in-process transport.
struct Workload {
  const char* name;
  App app;
  DetectionMode mode;
  uint16_t nodes;
};

// Why each workload exists and how it was sized is in perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"tasks_rt", App::kQuicksort, DetectionMode::kRt, 4},
    {"barrier_vm", App::kSor, DetectionMode::kVmSigsegv, 3},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

SystemConfig ConfigFor(const Workload& w, bool spans) {
  SystemConfig config;
  config.num_procs = w.nodes;
  config.mode = w.mode;
  config.spans = spans;
  return config;
}

// Inputs of solve `index` in a run seeded with `seed`.
uint64_t SolveSeed(uint64_t seed, int64_t index) {
  SplitMix64 rng(seed * 0x100000001B3ULL + static_cast<uint64_t>(index));
  return rng.Next();
}

AppReport Solve(const Workload& w, const SystemConfig& config, uint64_t seed, bool tiny) {
  switch (w.app) {
    case App::kQuicksort: {
      QuicksortParams p = tiny ? QuicksortParams{} : QuicksortParams::PaperScale();
      p.seed = seed;
      return RunQuicksort(config, p);
    }
    case App::kSor: {
      SorParams p = tiny ? SorParams{128, 4, seed} : SorParams{1000, 10, seed};
      return RunSor(config, p);
    }
  }
  return {};
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

// The process's peak resident set since the last ResetPeakRss() (since start where the
// kernel cannot reset it), from /proc/self/status.
uint64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

void ResetPeakRss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// One JSON object built field by field; Emit() prints it as one flushed stdout line.
class Line {
 public:
  explicit Line(const char* event) { out_ = std::string("{\"event\":\"") + event + "\""; }
  Line& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return Raw(key, buf);
  }
  Line& Int(const char* key, uint64_t v) { return Raw(key, std::to_string(v)); }
  Line& Raw(const char* key, const std::string& json) {
    out_ += std::string(",\"") + key + "\":" + json;
    return *this;
  }
  void Emit() {
    std::printf("%s}\n", out_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string out_;
};

std::string CountersJson(const CounterSnapshot& c) {
  std::string out = "{";
  c.ForEach([&](const char* name, uint64_t value, const char*) {
    if (out.size() > 1) out += ",";
    out += std::string("\"") + name + "\":" + std::to_string(value);
  });
  return out + "}";
}

// Span histograms keyed by span name: count, exact sum and max, and the log2 buckets (the
// run.py merges buckets across solves before taking a percentile).
std::string SpansJson(const AppReport& r) {
  std::string out = "{";
  for (size_t k = 0; k < obs::kNumSpanKinds; ++k) {
    const obs::HistogramSnapshot& h = r.spans[k];
    if (h.count == 0) continue;
    if (out.size() > 1) out += ",";
    out += std::string("\"") + obs::SpanKindName(static_cast<obs::SpanKind>(k)) +
           "\":{\"count\":" + std::to_string(h.count) + ",\"sum_ns\":" +
           std::to_string(h.sum_ns) + ",\"max_ns\":" + std::to_string(h.max_ns) +
           ",\"buckets\":[";
    for (size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) out += ',';
      out += std::to_string(h.buckets[b]);
    }
    out += "]}";
  }
  return out + "}";
}

double SetupSeconds(const Workload& w) {
  Stopwatch watch;
  {
    System system(ConfigFor(w, /*spans=*/false));
    system.Run([](Runtime& rt) { rt.BeginParallel(); });
  }
  return watch.ElapsedSeconds();
}

int RunSolves(const Workload& w, uint64_t seed, int64_t first, double seconds,
              int traced_every, int setups, int64_t crash_index, bool tiny) {
  Stopwatch run;
  int64_t index = first;
  do {
    const bool traced = traced_every > 0 && index % traced_every == traced_every - 1;
    Line("start").Int("index", index).Emit();
    if (index == crash_index) std::abort();  // the self-test's stand-in for a crashing solve
    ResetPeakRss();
    const double cpu0 = CpuSeconds();
    const AppReport r = Solve(w, ConfigFor(w, traced), SolveSeed(seed, index), tiny);
    const double cpu_s = CpuSeconds() - cpu0;
    Line line("solve");
    line.Int("index", index)
        .Int("traced", traced)
        .Int("verified", r.verified)
        .Num("elapsed_s", r.elapsed_sec)
        .Num("cpu_s", cpu_s)
        .Int("peak_rss_kb", PeakRssKb())
        .Int("wire_bytes", r.wire_bytes)
        .Int("frames", r.wire_packets)
        .Int("recv_bytes_copied", r.recv_bytes_copied)
        .Raw("counters", CountersJson(r.total));
    if (traced) line.Raw("spans", SpansJson(r));
    line.Emit();
    for (int i = 0; i < setups; ++i) Line("setup").Num("seconds", SetupSeconds(w)).Emit();
    ++index;
  } while (run.ElapsedSeconds() < seconds);
  return 0;
}

// Standalone (1 processor, no write detection) solves of the run's first input: the host's
// speed on the application itself. Repeated until both a count and a time floor are met.
double StandaloneSeconds(const Workload& w, uint64_t seed, bool tiny) {
  SystemConfig config;
  config.num_procs = 1;
  config.mode = DetectionMode::kStandalone;
  std::vector<double> samples;
  Stopwatch budget;
  while (samples.size() < 3 || (budget.ElapsedSeconds() < 0.5 && samples.size() < 50)) {
    const AppReport r = Solve(w, config, seed, tiny);
    if (!r.verified) {
      std::fprintf(stderr, "perfbench_worker: standalone %s solve did not verify\n", w.name);
      std::exit(2);
    }
    samples.push_back(r.elapsed_sec);
  }
  return Median(samples);
}

// Keeps a store the compiler must emit, one scalar store per element: the uninstrumented
// store the instrumented ones are compared against.
inline void StoreBarrier(const void* p) { asm volatile("" : : "r"(p) : "memory"); }

struct TrapProbe {
  double store_ns = 0;
  double raw_store_ns = 0;
  double fault_us = 0;
};

// One processor of the workload's detection mode writes a shared array: the first store to
// every page is timed on its own (a write fault under VM-DSM), then warm SharedArray::Set
// passes alternate with raw passes over a private buffer of the same size.
TrapProbe ProbeTrap(const Workload& w, bool tiny) {
  constexpr size_t kPage = 4096;
  const size_t elements = tiny ? (size_t{1} << 14) : (size_t{1} << 18);
  const int rounds = 5;
  SystemConfig config;
  config.num_procs = 1;
  config.mode = w.mode;
  TrapProbe probe;
  System system(config);
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, elements);
    BarrierId done = rt.CreateBarrier();
    rt.BindBarrier(done, {data.WholeRange()});
    // init-phase: untracked raw stores, legal only before BeginParallel
    for (size_t i = 0; i < elements; ++i) data.raw_mutable()[i] = 0;
    rt.BeginParallel();

    const size_t per_page = kPage / sizeof(int64_t);
    double first_store_s = 0;
    size_t pages = 0;
    for (size_t i = 0; i < elements; i += per_page) {
      Stopwatch one;
      data.Set(i, static_cast<int64_t>(i) + 1);
      first_store_s += one.ElapsedSeconds();
      ++pages;
    }
    probe.fault_us = first_store_s * 1e6 / static_cast<double>(pages);

    std::vector<int64_t> raw(elements, 0);
    std::vector<double> set_ns;
    std::vector<double> raw_ns;
    for (int r = 0; r < rounds; ++r) {
      Stopwatch set_watch;
      for (size_t i = 0; i < elements; ++i) data.Set(i, static_cast<int64_t>(i) + r);
      set_ns.push_back(set_watch.ElapsedSeconds() * 1e9 / static_cast<double>(elements));
      Stopwatch raw_watch;
      for (size_t i = 0; i < elements; ++i) {
        raw[i] = static_cast<int64_t>(i) + r;
        StoreBarrier(&raw[i]);
      }
      raw_ns.push_back(raw_watch.ElapsedSeconds() * 1e9 / static_cast<double>(elements));
    }
    probe.store_ns = Median(set_ns);
    probe.raw_store_ns = Median(raw_ns);
    rt.BarrierWait(done);
  });
  return probe;
}

// Median round trip of one small frame between two nodes of the workloads' transport,
// through Transport::Send and Transport::Recv only (no runtime on top).
double ProbeRttUs(bool tiny) {
  const int trips = tiny ? 200 : 4000;
  InProcTransport transport(2);
  std::thread echo([&] {
    Packet p;
    while (transport.Recv(1, &p)) {
      const auto bytes = p.bytes();
      transport.Send(1, 0, std::vector<std::byte>(bytes.begin(), bytes.end()));
    }
  });
  std::vector<double> rtt_us;
  rtt_us.reserve(trips);
  const std::vector<std::byte> frame(64, std::byte{0x5a});
  for (int i = 0; i < trips; ++i) {
    Stopwatch trip;
    transport.Send(0, 1, frame);
    Packet reply;
    if (!transport.Recv(0, &reply) || reply.bytes().size() != frame.size()) {
      std::fprintf(stderr, "perfbench_worker: ping-pong frame lost\n");
      std::exit(2);
    }
    rtt_us.push_back(trip.ElapsedMicros());
  }
  transport.Shutdown();
  echo.join();
  return Median(rtt_us);
}

int RunProbe(const Workload& w, uint64_t seed, bool tiny) {
  const double standalone_s = StandaloneSeconds(w, SolveSeed(seed, 0), tiny);
  const TrapProbe trap = ProbeTrap(w, tiny);
  const double rtt_us = ProbeRttUs(tiny);
  Line("probe")
      .Num("standalone_s", standalone_s)
      .Num("store_ns", trap.store_ns)
      .Num("raw_store_ns", trap.raw_store_ns)
      .Num("fault_us", trap.fault_us)
      .Num("rtt_us", rtt_us)
      .Emit();
  return 0;
}

int Main(int argc, char** argv) {
  Options options(argc, argv);
  const std::vector<std::string>& pos = options.Positional();
  const Workload* w = FindWorkload(options.GetString("workload", ""));
  if (pos.size() != 1 || w == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench_worker solve|probe --workload "
                 "tasks_rt|barrier_vm [--seed N] [--first I] [--seconds T] "
                 "[--traced-every K] [--setups N] [--crash-index I] [--tiny]\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(options.GetInt("seed", 1));
  const bool tiny = options.GetBool("tiny", false);
  if (pos[0] == "solve") {
    return RunSolves(*w, seed, options.GetInt("first", 0), options.GetDouble("seconds", 1),
                     static_cast<int>(options.GetInt("traced-every", 0)),
                     static_cast<int>(options.GetInt("setups", 0)),
                     options.GetInt("crash-index", -1), tiny);
  }
  if (pos[0] == "probe") return RunProbe(*w, seed, tiny);
  std::fprintf(stderr, "perfbench_worker: unknown phase '%s'\n", pos[0].c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench
}  // namespace midway

int main(int argc, char** argv) { return midway::perfbench::Main(argc, argv); }
