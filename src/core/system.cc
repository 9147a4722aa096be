#include "src/core/system.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/common/log.h"
#include "src/net/epoll_transport.h"
#include "src/net/faulty_transport.h"
#include "src/net/inproc_transport.h"

namespace midway {
namespace {

// Env-derived export paths must not collide when one process builds many Systems (the
// stress suites do): insert ".<pid>.<seq>" before the extension.
std::string UniquifyPath(const std::string& path) {
  static std::atomic<uint64_t> seq{0};
  const std::string tag =
      "." + std::to_string(getpid()) + "." + std::to_string(seq.fetch_add(1));
  const size_t dot = path.rfind('.');
  const size_t slash = path.rfind('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

void WriteFileOrWarn(const std::string& path, const std::string& contents, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    MIDWAY_LOG(Warn) << "cannot write " << what << " to " << path;
    return;
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
}

}  // namespace

System::System(const SystemConfig& config) : config_(config) {
  MIDWAY_CHECK_GT(config_.num_procs, 0);
  MIDWAY_CHECK(IsPowerOfTwo(config_.default_line_size));
  MIDWAY_CHECK(IsPowerOfTwo(config_.page_size));
  // Observability wiring: explicit config wins; the environment is the no-recompile fallback
  // (CI turns it on for whole suites). An env-derived path is uniquified per System so
  // repeated runs in one process do not clobber each other's dumps.
  if (config_.trace_path.empty()) {
    if (const char* env = std::getenv("MIDWAY_TRACE_PATH"); env != nullptr && *env != '\0') {
      config_.trace_path = UniquifyPath(env);
    }
  }
  if (config_.metrics_path.empty()) {
    if (const char* env = std::getenv("MIDWAY_METRICS_PATH"); env != nullptr && *env != '\0') {
      config_.metrics_path = UniquifyPath(env);
    }
  }
  if (!config_.trace_path.empty()) {
    config_.spans = true;
    if (config_.trace_capacity == 0) config_.trace_capacity = 1 << 15;
  }
  if (!config_.metrics_path.empty()) {
    config_.spans = true;
  }
  switch (config_.transport) {
    case TransportKind::kInProc:
      transport_ = std::make_unique<InProcTransport>(config_.num_procs);
      break;
    case TransportKind::kTcp:
      transport_ = std::make_unique<EpollTransport>(config_.num_procs);
      break;
    case TransportKind::kFaulty:
      // The DSM protocol assumes FIFO exactly-once delivery; over a lossy transport the
      // reliable channel is what restores it, so it is not optional here.
      config_.reliable_channel = true;
      transport_ = std::make_unique<FaultyTransport>(config_.num_procs, config_.fault);
      break;
  }
  if (config_.checkpointing) {
    checkpoints_.reserve(config_.num_procs);
    for (NodeId i = 0; i < config_.num_procs; ++i) {
      checkpoints_.push_back(std::make_unique<CheckpointLog>());
    }
  }
  runtimes_.reserve(config_.num_procs);
  for (NodeId i = 0; i < config_.num_procs; ++i) {
    RuntimeBoot boot;
    boot.checkpoint = checkpoint(i);
    runtimes_.push_back(std::make_unique<Runtime>(config_, i, transport_.get(), boot));
  }
  ever_crashed_.assign(config_.num_procs, 0);
}

System::~System() {
  transport_->Shutdown();
}

void System::Run(const std::function<void(Runtime&)>& body) {
  MIDWAY_CHECK(!ran_) << " System::Run may be called once";
  ran_ = true;

  const size_t n = runtimes_.size();
  std::vector<std::thread> comm_threads(n);
  for (size_t i = 0; i < n; ++i) {
    comm_threads[i] = std::thread([rt = runtimes_[i].get()] { rt->CommLoop(); });
  }

  std::vector<std::thread> app_threads;
  app_threads.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Each application thread supervises its own node: a scheduled crash unwinds body()
    // with NodeCrashed; with restart, the node reboots as a new incarnation from its
    // checkpoint log and body() runs again. Only this thread ever touches
    // comm_threads[i] or swaps runtimes_[i], so the vector itself is race-free.
    app_threads.emplace_back([this, &body, &comm_threads, i] {
      for (;;) {
        Runtime* rt;
        {
          std::lock_guard<std::mutex> lk(runtimes_mu_);
          rt = runtimes_[i].get();
        }
        try {
          body(*rt);
          return;
        } catch (const NodeCrashed& crash) {
          {
            std::lock_guard<std::mutex> lk(runtimes_mu_);
            ever_crashed_[i] = 1;  // a real crash: exempt from the liveness invariant
          }
          // MaybeCrash already closed the node's mailbox, so its communication thread is
          // exiting (or has exited); reap it before retiring the dead incarnation.
          comm_threads[i].join();
          rt->StopReliability();
          if (!crash.restart) return;  // stays dead; survivors carry on without it
          const uint16_t next_inc = static_cast<uint16_t>(rt->incarnation() + 1);
          RuntimeBoot boot;
          boot.checkpoint = checkpoint(static_cast<NodeId>(i));
          boot.incarnation = next_inc;
          boot.recovered = true;
          auto fresh =
              std::make_unique<Runtime>(config_, static_cast<NodeId>(i), transport_.get(), boot);
          {
            std::lock_guard<std::mutex> lk(runtimes_mu_);
            retired_.push_back(std::move(runtimes_[i]));
            runtimes_[i] = std::move(fresh);
            rt = runtimes_[i].get();
          }
          transport_->ReviveNode(static_cast<NodeId>(i));
          comm_threads[i] = std::thread([rt] { rt->CommLoop(); });
        }
      }
    });
  }
  for (std::thread& t : app_threads) {
    t.join();
  }
  // All application threads are done: no further protocol activity is possible. Retransmit
  // threads had to survive until this point (the final barrier release to a peer may itself
  // need retransmitting); now they can stop, then the communication threads drain.
  for (auto& runtime : runtimes_) {
    runtime->StopReliability();
  }
  transport_->Shutdown();
  for (std::thread& t : comm_threads) {
    if (t.joinable()) t.join();
  }
  if (config_.ec_check) {
    ReportEcFindings();
  }
  ExportObservability();
}

std::vector<CounterSnapshot> System::Snapshots() const {
  std::lock_guard<std::mutex> lk(runtimes_mu_);
  std::vector<CounterSnapshot> out(runtimes_.size());
  for (const auto& runtime : runtimes_) {
    out[runtime->self()] += CounterSnapshot::From(const_cast<Runtime&>(*runtime).counters());
  }
  // A restarted node's earlier incarnations count toward the same processor.
  for (const auto& runtime : retired_) {
    out[runtime->self()] += CounterSnapshot::From(const_cast<Runtime&>(*runtime).counters());
  }
  return out;
}

CounterSnapshot System::Total() const {
  CounterSnapshot total;
  for (const CounterSnapshot& s : Snapshots()) {
    total += s;
  }
  return total;
}

CounterSnapshot System::PerProcessor() const { return Total().DividedBy(config_.num_procs); }

std::vector<LockStat> System::AggregatedLockStats() const {
  std::lock_guard<std::mutex> lk(runtimes_mu_);
  std::vector<LockStat> total;
  auto fold = [&total](Runtime& runtime) {
    const std::vector<LockStat> local = runtime.LockStats();
    if (total.size() < local.size()) total.resize(local.size());
    for (size_t i = 0; i < local.size(); ++i) {
      total[i].id = local[i].id;
      total[i].acquires += local[i].acquires;
      total[i].local_acquires += local[i].local_acquires;
      total[i].grants += local[i].grants;
      total[i].bytes_granted += local[i].bytes_granted;
      total[i].full_sends += local[i].full_sends;
      total[i].rebinds += local[i].rebinds;
    }
  };
  for (const auto& runtime : runtimes_) fold(const_cast<Runtime&>(*runtime));
  for (const auto& runtime : retired_) fold(const_cast<Runtime&>(*runtime));
  return total;
}

EcSummary System::EcReport() const {
  std::lock_guard<std::mutex> lk(runtimes_mu_);
  EcSummary total;
  for (const auto& runtime : runtimes_) total += runtime->EcReport();
  for (const auto& runtime : retired_) total += runtime->EcReport();
  return total;
}

void System::ReportEcFindings() const {
  const EcSummary summary = EcReport();
  const std::string report = FormatEcReport(summary);
  if (!report.empty()) {
    std::fputs(report.c_str(), stderr);
  }
  if (!config_.ec_report_path.empty()) {
    std::FILE* f = std::fopen(config_.ec_report_path.c_str(), "w");
    if (f == nullptr) {
      MIDWAY_LOG(Warn) << "cannot write EC report to " << config_.ec_report_path;
      return;
    }
    const std::string json = EcSummaryToJson(summary);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
}

obs::MetricsRegistry System::Metrics() const {
  obs::MetricsRegistry registry;
  Total().ForEach([&registry](const char* name, uint64_t value, const char* help) {
    registry.AddCounter(name, value, help);
  });
  // Transport-level receive-side complement of payload_bytes_copied: bytes copied while
  // reassembling frames that straddled pooled receive buffers (zero for owned-packet
  // transports).
  registry.AddCounter("recv_bytes_copied", transport_->RecvBytesCopied(),
                      "receive-side frame-reassembly bytes copied by the transport");
  for (const LockStat& s : AggregatedLockStats()) {
    if (s.acquires == 0 && s.grants == 0 && s.rebinds == 0) continue;
    const obs::MetricsRegistry::Labels labels{{"lock", std::to_string(s.id)}};
    registry.AddCounter("per_lock_acquires", s.acquires, "acquires of this lock", labels);
    registry.AddCounter("per_lock_acquires_local", s.local_acquires,
                        "no-message fast-path reacquires of this lock", labels);
    registry.AddCounter("per_lock_grants", s.grants, "grants served for this lock", labels);
    registry.AddCounter("per_lock_bytes_granted", s.bytes_granted,
                        "update payload shipped when granting this lock", labels);
    registry.AddCounter("per_lock_full_sends", s.full_sends,
                        "grants of this lock that shipped full bound data", labels);
    registry.AddCounter("per_lock_rebinds", s.rebinds, "binding changes of this lock",
                        labels);
  }
  // One histogram per span kind, merged over all processors and incarnations. All kinds are
  // emitted (zero-count included) so the dump's shape does not depend on the workload.
  for (size_t k = 0; k < obs::kNumSpanKinds; ++k) {
    const auto kind = static_cast<obs::SpanKind>(k);
    registry.AddHistogram(std::string("span_") + obs::SpanKindName(kind) + "_ns",
                          MergedSpan(kind), "span duration in nanoseconds");
  }
  return registry;
}

obs::HistogramSnapshot System::MergedSpan(obs::SpanKind kind) const {
  std::lock_guard<std::mutex> lk(runtimes_mu_);
  obs::HistogramSnapshot merged;
  for (const auto& runtime : runtimes_) {
    merged += const_cast<Runtime&>(*runtime).spans().SnapshotOf(kind);
  }
  for (const auto& runtime : retired_) {
    merged += const_cast<Runtime&>(*runtime).spans().SnapshotOf(kind);
  }
  return merged;
}

std::string System::MetricsJson() const { return Metrics().ToJson(); }

std::string System::ChromeTrace() const {
  std::vector<obs::ChromeTraceEvent> events;
  std::lock_guard<std::mutex> lk(runtimes_mu_);
  auto fold = [&events](Runtime& runtime) {
    for (const TraceRecord& r : runtime.TraceSnapshot()) {
      obs::ChromeTraceEvent ev;
      ev.node = runtime.self();
      ev.sequence = r.sequence;
      ev.lamport = r.lamport;
      ev.name = r.event == TraceEvent::kSpan ? obs::SpanKindName(r.span_kind)
                                             : TraceEventName(r.event);
      ev.start_ns = r.wall_ns;
      ev.dur_ns = r.dur_ns;
      ev.object = r.object;
      ev.peer = r.peer;
      ev.detail = r.detail;
      ev.detail_label = TraceDetailLabel(r.event);
      events.push_back(std::move(ev));
    }
  };
  for (const auto& runtime : runtimes_) fold(const_cast<Runtime&>(*runtime));
  for (const auto& runtime : retired_) fold(const_cast<Runtime&>(*runtime));
  return obs::ChromeTraceJson(std::move(events), config_.num_procs);
}

void System::ExportObservability() const {
  if (!config_.trace_path.empty()) {
    WriteFileOrWarn(config_.trace_path, ChromeTrace(), "chrome trace");
  }
  if (!config_.metrics_path.empty()) {
    if (!Metrics().WriteFile(config_.metrics_path)) {
      MIDWAY_LOG(Warn) << "cannot write metrics to " << config_.metrics_path;
    }
  }
}

Runtime::InvariantReport System::Invariants() const {
  std::lock_guard<std::mutex> lk(runtimes_mu_);
  Runtime::InvariantReport total;
  auto fold = [&total](const Runtime& runtime) {
    const Runtime::InvariantReport r = runtime.Invariants();
    total.exactly_once_violations += r.exactly_once_violations;
    total.incarnation_violations += r.incarnation_violations;
    if (total.first_violation.empty()) total.first_violation = r.first_violation;
  };
  for (const auto& runtime : runtimes_) fold(*runtime);
  for (const auto& runtime : retired_) fold(*runtime);
  // Liveness: every node that never crashed must be a member of the final epoch's commit
  // set. Only views at the maximum committed epoch are authoritative — a node whose last
  // commit frame was lost to teardown has a legitimately stale view, and a node awaiting
  // resurrection cannot be at the maximum epoch (its rejoin commit is what would get it
  // there). Current incarnations only; retired ones died mid-run by design.
  uint32_t max_epoch = 0;
  for (const auto& runtime : runtimes_) {
    max_epoch = std::max(max_epoch, runtime->DebugEpoch());
  }
  for (const auto& runtime : runtimes_) {
    if (runtime->DebugEpoch() != max_epoch) continue;
    const std::vector<uint8_t> dead = runtime->DebugMembership();
    for (size_t n = 0; n < dead.size() && n < ever_crashed_.size(); ++n) {
      if (dead[n] == 0 || ever_crashed_[n] != 0) continue;
      ++total.liveness_violations;
      if (total.first_violation.empty()) {
        total.first_violation = "liveness: node " + std::to_string(n) +
                                " never crashed but is buried in node " +
                                std::to_string(runtime->self()) +
                                "'s view of final epoch " + std::to_string(max_epoch);
      }
    }
  }
  return total;
}

}  // namespace midway
