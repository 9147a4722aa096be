// Timed protocol spans.
//
// A Span is an RAII stopwatch around one hot protocol section (acquire wait, grant build,
// wire send, ...). When the sink is disabled — the default — constructing a Span costs
// exactly one predictable branch and records nothing. When enabled, the destructor (or an
// explicit End()) adds the duration to the sink's per-kind latency histogram and, if a
// TraceHook is installed, forwards the span to it for the Lamport-stamped trace ring.
//
// Threading: histograms are lock-free, so Span itself imposes no locking. The TraceHook
// callback is invoked synchronously from End(); the Runtime's hook records into its
// TraceBuffer, which is guarded by the runtime mutex — span scopes inside the runtime must
// therefore end while that mutex is held (declare the Span after the lock guard, or End()
// it explicitly before unlocking; see src/core/trace.h).
#ifndef MIDWAY_SRC_OBS_SPAN_H_
#define MIDWAY_SRC_OBS_SPAN_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/obs/histogram.h"

namespace midway {
namespace obs {

// One value per timed protocol section. Names (SpanKindName) are stable identifiers used
// in metrics dumps and trace.json; changing them is a schema change (EXPERIMENTS.md).
enum class SpanKind : uint8_t {
  kAcquireWait = 0,    // Acquire: request sent -> grant applied (remote path)
  kGrantBuild,         // GrantTo: strategy Collect + serialize into the wire frame
  kGrantApply,         // HandleGrant: decode + Apply per incarnation
  kBarrierWait,        // BarrierWait: enter -> release received
  kBarrierApply,       // HandleBarrierRelease: apply piggybacked updates
  kCollect,            // DetectionStrategy::Collect / CollectFull
  kDiff,               // VM twin diff (ComputeDiffInto)
  kWireSend,           // SendFrame: frame handed to the transport
  kCheckpointAppend,   // CheckpointLocked: serialize + append one record
  kCheckpointReplay,   // ReplayCheckpointLocked during recovery
  kRecoveryReport,     // HandleRecoveryBegin: build + send survivor report
  kRecoveryElect,      // ElectAndCommitLocked: coordinator election + commit build
  kRecoveryApply,      // ApplyRecoveryCommit: install new epoch state
  kResurrection,       // wrongly-buried protest: own death commit seen -> rejoin committed
};

inline constexpr size_t kNumSpanKinds = 14;

constexpr const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAcquireWait: return "acquire_wait";
    case SpanKind::kGrantBuild: return "grant_build";
    case SpanKind::kGrantApply: return "grant_apply";
    case SpanKind::kBarrierWait: return "barrier_wait";
    case SpanKind::kBarrierApply: return "barrier_apply";
    case SpanKind::kCollect: return "collect";
    case SpanKind::kDiff: return "diff";
    case SpanKind::kWireSend: return "wire_send";
    case SpanKind::kCheckpointAppend: return "checkpoint_append";
    case SpanKind::kCheckpointReplay: return "checkpoint_replay";
    case SpanKind::kRecoveryReport: return "recovery_report";
    case SpanKind::kRecoveryElect: return "recovery_elect";
    case SpanKind::kRecoveryApply: return "recovery_apply";
    case SpanKind::kResurrection: return "resurrection";
  }
  return "unknown";
}

// Receives finished spans for trace-ring recording. Implemented by the Runtime; kept as an
// interface so the obs library has no dependency on src/core.
class TraceHook {
 public:
  virtual ~TraceHook() = default;
  // start_ns is a steady_clock reading (see Span::NowNs); dur_ns the measured duration.
  virtual void OnSpan(SpanKind kind, uint64_t start_ns, uint64_t dur_ns, uint64_t object,
                      uint64_t detail) = 0;
};

// Per-runtime collection point: the enabled flag, one histogram per span kind, and the
// optional trace hook. Lives as a plain member of the Runtime.
class SpanSink {
 public:
  void Enable(TraceHook* hook) {
    hook_ = hook;
    enabled_.store(true, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  TraceHook* hook() const { return hook_; }

  LatencyHistogram& histogram(SpanKind kind) {
    return histograms_[static_cast<size_t>(kind)];
  }
  HistogramSnapshot SnapshotOf(SpanKind kind) const {
    return histograms_[static_cast<size_t>(kind)].Snapshot();
  }

 private:
  std::atomic<bool> enabled_{false};
  TraceHook* hook_ = nullptr;  // set before Enable(), then read-only
  std::array<LatencyHistogram, kNumSpanKinds> histograms_{};
};

// RAII span. Not copyable or movable: a span is bound to the scope it times.
class Span {
 public:
  Span() = default;  // inactive
  Span(SpanSink& sink, SpanKind kind, uint64_t object = 0)
      : sink_(sink.enabled() ? &sink : nullptr), kind_(kind), object_(object) {
    if (sink_ != nullptr) start_ns_ = NowNs();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  // Attach a payload value (bytes collected, frames sent, ...) reported with the span.
  void set_detail(uint64_t detail) { detail_ = detail; }

  // Finish now instead of at scope exit; idempotent.
  void End() {
    if (sink_ == nullptr) return;
    const uint64_t dur = NowNs() - start_ns_;
    sink_->histogram(kind_).Add(dur);
    if (TraceHook* hook = sink_->hook()) {
      hook->OnSpan(kind_, start_ns_, dur, object_, detail_);
    }
    sink_ = nullptr;
  }
  void End(uint64_t detail) {
    detail_ = detail;
    End();
  }

  // Drop the span without recording — for paths that abandon the timed section (e.g. a
  // fault-injected crash mid-acquire, where the trace mutex is no longer held).
  void Cancel() { sink_ = nullptr; }

  bool active() const { return sink_ != nullptr; }
  uint64_t start_ns() const { return start_ns_; }

  static uint64_t NowNs() {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now().time_since_epoch())
                                     .count());
  }

 private:
  SpanSink* sink_ = nullptr;
  SpanKind kind_{};
  uint64_t object_ = 0;
  uint64_t detail_ = 0;
  uint64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace midway

#endif  // MIDWAY_SRC_OBS_SPAN_H_
