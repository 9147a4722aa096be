// Write detection strategies (the paper's subject).
//
// A strategy implements the two halves of write detection:
//   * write trapping — noticing that a store to shared memory happened (paper §3.1 / §3.3);
//   * write collection — producing, at a synchronization point, the set of modifications a
//     requesting processor is missing (paper §3.2 / §3.4);
// plus the receive side, applying each received update set to the local copy.
//
// The Runtime drives the protocol (lock transfer, incarnation logs, barriers) and calls into
// the strategy for these mechanisms.
#ifndef MIDWAY_SRC_CORE_STRATEGY_H_
#define MIDWAY_SRC_CORE_STRATEGY_H_

#include <memory>
#include <span>

#include "src/core/config.h"
#include "src/core/counters.h"
#include "src/core/region_table.h"
#include "src/core/update.h"
#include "src/obs/span.h"
#include "src/sync/binding.h"

namespace midway {

class ExactlyOnceLedger;

class DetectionStrategy {
 public:
  DetectionStrategy(const SystemConfig& config, RegionTable* regions, Counters* counters)
      : config_(config), regions_(regions), counters_(counters) {}
  virtual ~DetectionStrategy() = default;

  DetectionStrategy(const DetectionStrategy&) = delete;
  DetectionStrategy& operator=(const DetectionStrategy&) = delete;

  virtual DetectionMode mode() const = 0;

  // Per-line modification timestamps available? (Drives the Runtime's choice between
  // timestamp-based and incarnation-based grant filtering.)
  virtual bool HasLineTimestamps() const { return false; }

  // Called when a region is created (before the parallel phase).
  virtual void AttachRegion(Region* region) {}

  // Called on every processor at the start of the parallel phase: initialization writes are
  // not modifications, so tracking state is reset here (dirtybits cleared, pages protected).
  virtual void OnBeginParallel() {}

  // Called from the application thread at each synchronization operation, before any
  // blocking. Used by the VM strategies to retire pages whose modifications have all been
  // shipped (re-protect + drop twin) at a point where no local store can be in flight.
  virtual void OnSyncPoint() {}

  // --- Write trapping -------------------------------------------------------------------
  // Hot path, invoked by the typed accessors *before* the raw store. `header` is the
  // masked-out region header, `offset` is relative to the region's data base.
  virtual void NoteWrite(RegionHeader* header, uint32_t offset, uint32_t length) = 0;

  // --- Write collection -----------------------------------------------------------------
  // Appends to `out` the modifications within `binding`:
  //   * timestamp strategies (RT): lines with ts > `since`, stamping unstamped (sentinel)
  //     lines with `stamp_ts` first;
  //   * diff strategies (VM/twin-all): all modifications relative to the twins (`since` and
  //     `stamp_ts` ignored; entries carry ts 0). Collected ranges are refreshed into the
  //     twins so they are not collected again.
  virtual void Collect(const Binding& binding, uint64_t since, uint64_t stamp_ts,
                       UpdateSet* out) = 0;

  // Appends the complete current contents of `binding` (full sends; also used by kBlast on
  // every transfer). Entries carry `stamp_ts` so timestamp strategies stay consistent.
  virtual void CollectFull(const Binding& binding, uint64_t stamp_ts, UpdateSet* out);

  // --- Update application ---------------------------------------------------------------
  // Applies a received update set to the local copy, entries in order. The set is one
  // barrier chunk, one incarnation of a lock grant or one checkpoint record; taking it whole
  // lets the VM strategy open each write-protected page once per set instead of once per
  // entry. Runs on the communication thread while the application thread is blocked at the
  // synchronization operation that triggered the transfer; checkpoint replay runs it on the
  // application thread itself, inside BeginParallel, before the program resumes.
  virtual void Apply(std::span<const UpdateEntry> entries) = 0;

  // Optional exactly-once audit (src/sync/invariants.h): when set, timestamp strategies
  // record every line application so the fault-injection suites can prove no modification
  // was applied twice. Null (the default) costs one branch per applied line.
  void set_apply_ledger(ExactlyOnceLedger* ledger) { ledger_ = ledger; }

  // Span sink for timing collection/diff work (src/obs/span.h). Set by the owning Runtime;
  // null (the default, e.g. strategies built standalone in tests) records nothing.
  void set_span_sink(obs::SpanSink* sink) { span_sink_ = sink; }

 protected:
  // Collect/diff implementations time themselves through this: an inactive Span when the
  // sink is null or disabled, a live one otherwise. Collection runs at sync points, not on
  // the store fast path, so the null check is off the write-latency critical path.
  obs::Span CollectSpan(obs::SpanKind kind, uint64_t object = 0) {
    return span_sink_ != nullptr ? obs::Span(*span_sink_, kind, object) : obs::Span();
  }

  const SystemConfig config_;
  RegionTable* regions_;
  Counters* counters_;
  ExactlyOnceLedger* ledger_ = nullptr;
  obs::SpanSink* span_sink_ = nullptr;
};

// Factory dispatching on config.mode.
std::unique_ptr<DetectionStrategy> MakeStrategy(const SystemConfig& config, RegionTable* regions,
                                                Counters* counters);

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_STRATEGY_H_
