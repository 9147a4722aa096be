// Entry-consistency checker: an opt-in shadow-memory analysis layered on the write-trapping
// instrumentation (ISSUE 3; after Butelle & Coti's DSM-coherence-as-race-detector and
// Huron's cache-line-granular false-sharing analysis).
//
// Entry consistency is only as correct as the programmer's lock<->data bindings (paper §3):
// an unbound write is silently never propagated, and two locks binding the same software
// cache line make update order ambiguous. Each shared line gets a shadow record (candidate
// lockset, unlocked-read watermark, per-kind report flags); the runtime's NoteWrite /
// NoteRead hooks and the sync-protocol hooks consult it to report, with symbolized site
// info:
//
//   kUnboundWrite    write to a line no lock or barrier binding covers at all
//   kWrongLockWrite  write to a line bound to a lock the writer does not hold exclusively
//                    (includes writes under a shared-mode hold: read locks license reads)
//   kRebindGapWrite  write to a line the held lock's binding covered *before* a Rebind
//                    narrowed it away (the quicksort pitfall: parent keeps writing the range
//                    it handed to its children)
//   kLocksetEmpty    Eraser-style: a line's candidate lockset went empty across acquires —
//                    no single lock consistently protects it
//   kBindingOverlap  Huron-style layout diagnostic at BeginParallel: two locks' bindings
//                    byte-overlap, or distinct locks' data lands on the same software cache
//                    line (false sharing; the report suggests a padded layout)
//   kStaleRead       a checked read observed data while the reader's copy was out of date:
//                    a later lock grant applied a newer version of the very line
//
// One checker instance per Runtime, guarded by its own mutex. Sync-path hooks are called
// with the Runtime's mu_ held; OnWrite/OnRead are called from the application thread with no
// runtime lock held — the checker never calls back into the runtime, so the lock order
// (mu_ before ec mutex, never the reverse) cannot cycle. Hooks that can report return the
// number of newly recorded violations so the caller can trace them; per-kind counters are
// bumped directly (Counters fields are relaxed atomics, safe from any thread).
//
// Compile-time gate: the hot-path hooks in Runtime::NoteWrite / the accessors are emitted
// only under MIDWAY_EC_CHECK (CMake option, default ON); with the flag off the store fast
// path is byte-identical to a checker-less build. At runtime the checker additionally only
// exists when SystemConfig::ec_check is set.
#ifndef MIDWAY_SRC_ANALYSIS_EC_CHECKER_H_
#define MIDWAY_SRC_ANALYSIS_EC_CHECKER_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <source_location>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/counters.h"
#include "src/core/update.h"
#include "src/mem/global_addr.h"
#include "src/net/transport.h"
#include "src/sync/binding.h"

namespace midway {

// Source attribution for a checked access. Captured by the accessors' defaulted
// std::source_location arguments; a default-constructed site means "via a proxy write"
// (C++20 forbids extra defaulted parameters on operator=/operator[]/operator+=, so writes
// through Shared<T> proxies are attributed by address only).
struct EcSite {
  const char* file = "";
  uint32_t line = 0;
  const char* function = "";

  static EcSite Current(std::source_location loc = std::source_location::current()) {
    return EcSite{loc.file_name(), loc.line(), loc.function_name()};
  }
  bool known() const { return line != 0; }
};

// Macros so the accessor signatures collapse to the seed's exact shapes when the checker is
// compiled out (MIDWAY_EC_SITE_PARAM adds the defaulted site parameter, MIDWAY_EC_SITE_ARG
// forwards it).
#ifdef MIDWAY_EC_CHECK
#define MIDWAY_EC_SITE_PARAM , const ::midway::EcSite& site = ::midway::EcSite::Current()
#define MIDWAY_EC_SITE_ONLY_PARAM const ::midway::EcSite& site = ::midway::EcSite::Current()
#define MIDWAY_EC_SITE_ARG , site
#else
#define MIDWAY_EC_SITE_PARAM
#define MIDWAY_EC_SITE_ONLY_PARAM
#define MIDWAY_EC_SITE_ARG
#endif

enum class EcViolationKind : uint8_t {
  kUnboundWrite = 0,
  kWrongLockWrite,
  kRebindGapWrite,
  kLocksetEmpty,
  kBindingOverlap,
  kStaleRead,
};
inline constexpr size_t kNumEcViolationKinds = 6;

const char* EcViolationKindName(EcViolationKind kind);  // "unbound-write", ...

inline constexpr uint32_t kNoSyncObject = 0xFFFFFFFF;

// One reported finding. `offset`/`length` cover the affected line(s) (or, for overlap
// diagnostics, the shared span).
struct EcViolation {
  EcViolationKind kind = EcViolationKind::kUnboundWrite;
  NodeId node = 0;
  RegionId region = 0;
  uint32_t offset = 0;
  uint32_t length = 0;
  uint64_t lamport = 0;           // Lamport clock at detection
  EcSite site;                    // where the offending access was issued (if known)
  uint32_t sync_a = kNoSyncObject;  // primary lock/barrier involved
  uint32_t sync_b = kNoSyncObject;  // secondary (e.g. the other lock of an overlap)
  std::string detail;             // human explanation, incl. padding suggestions
};

// Aggregated verdict: per-kind counts plus the retained (capped) detail reports.
struct EcSummary {
  std::array<uint64_t, kNumEcViolationKinds> counts{};
  std::vector<EcViolation> reports;  // capped at kEcMaxReports
  uint64_t dropped = 0;              // findings beyond the cap (counted, not detailed)

  uint64_t total() const {
    uint64_t t = 0;
    for (uint64_t c : counts) t += c;
    return t;
  }
  uint64_t count(EcViolationKind kind) const { return counts[static_cast<size_t>(kind)]; }

  EcSummary& operator+=(const EcSummary& o);
};

// Renders a human-readable report ("" when the summary is clean).
std::string FormatEcReport(const EcSummary& summary);
// Serializes the summary as a JSON object (the CI artifact format; see docs/TESTING.md).
std::string EcSummaryToJson(const EcSummary& summary);

// Detail reports retained per runtime; findings beyond the cap are counted, not detailed.
inline constexpr uint32_t kEcMaxReports = 64;

// Collects violations for one runtime: per-kind counts, capped detail list, and the
// corresponding ec_* counter bumps. Thread-compatible; the owning EcChecker serializes.
class ViolationSink {
 public:
  ViolationSink(NodeId node, Counters* counters) : node_(node), counters_(counters) {}

  // Records the violation (stamping `node`); returns 1 (every call is a new finding — the
  // checker dedups *before* calling).
  uint64_t Add(EcViolation v);

  EcSummary Summary() const;

 private:
  const NodeId node_;
  Counters* counters_;
  EcSummary summary_;
};

// The shadow-memory checker proper. See the file comment for the algorithm; INTERNALS §8
// documents the shadow record layout and the lockset rules.
class EcChecker {
 public:
  EcChecker(NodeId self, Counters* counters);

  // --- Setup phase (and binding installs/rebinds during the parallel phase) ---------------
  void OnRegion(RegionId region, uint32_t line_shift, bool shared, uint64_t data_size);
  // Bind / Rebind / grant-carried binding install for `lock`. Invalidates the cached
  // per-line coverage of both the old and the new ranges; a Rebind additionally remembers
  // the old binding so writes into the abandoned range classify as kRebindGapWrite.
  void OnLockBinding(uint32_t lock, const Binding& binding, bool is_rebind);
  // This runtime's own barrier binding ("bind what you write"): barrier-covered lines are
  // write-authorized between crossings and exempt from the lockset rule.
  void OnBarrierBinding(uint32_t barrier, const Binding& binding);
  // Pairwise overlap / false-sharing scan over all lock bindings (lock-vs-lock only:
  // overlapping *barrier* bindings are a legitimate idiom — e.g. an edge-row barrier inside
  // a whole-partition gather barrier). Returns newly recorded violations.
  uint64_t OnBeginParallel(uint64_t now);

  // --- Sync hooks (called with the runtime's mutex held) ----------------------------------
  void OnAcquired(uint32_t lock, bool exclusive);
  void OnReleased(uint32_t lock);
  // A grant from `granter` was applied: `updates` now overwrite local lines. Any line we
  // checked-read since the lock was last consistent here (prev_seen_ts) was a stale read.
  // Returns newly recorded violations.
  uint64_t OnGrantApplied(uint32_t lock, const std::vector<LoggedUpdate>& updates,
                          uint64_t prev_seen_ts, uint64_t now);
  // A barrier release applied `updates`: the lines are fresh again (clears read marks; by
  // design this never reports — reading neighbour data between barrier rounds is the normal
  // idiom, made consistent by the next crossing).
  void OnBarrierApplied(const UpdateSet& updates);

  // --- Hot path (application thread, no runtime lock held) --------------------------------
  // Instrumented store of [offset, offset+length) in a *shared* region. Returns newly
  // recorded violations.
  uint64_t OnWrite(RegionId region, uint32_t offset, uint32_t length, uint64_t now,
                   const EcSite& site);
  // Checked read: never reports immediately; marks the line when no held lock or own
  // barrier binding covers it, for stale-read confirmation at the next grant apply.
  void OnRead(RegionId region, uint32_t offset, uint32_t length, uint64_t now,
              const EcSite& site);

  EcSummary Summary() const;

 private:
  struct RegionInfo {
    uint32_t line_shift = 0;
    bool shared = false;
    uint64_t data_size = 0;
  };

  // Shadow record for one software cache line of a shared region.
  struct ShadowLine {
    // Cached coverage (invalidated when any binding covering the line changes):
    bool cover_valid = false;
    bool barrier_covered = false;          // some own barrier binding touches the line
    std::vector<uint32_t> covering_locks;  // locks whose binding touches the line
    // Eraser candidate lockset (meaningful only when covering_locks is nonempty and the
    // line is not barrier-covered). Starts as covering_locks; every write intersects it
    // with the locks held at the write.
    std::vector<uint32_t> candidates;
    bool lockset_dead = false;  // reported once; stop narrowing
    // Dedup bitmask of write-kind reports already made for this line.
    uint8_t reported_kinds = 0;
    // Unlocked checked-read watermark for stale-read detection.
    uint64_t read_ts = 0;
    EcSite read_site;
    bool stale_reported = false;
  };

  static uint64_t Key(RegionId region, uint32_t line) {
    return (static_cast<uint64_t>(region) << 32) | line;
  }

  // All callers hold mu_.
  ShadowLine& LineAt(RegionId region, uint32_t line);
  void RefreshCoverLocked(RegionId region, uint32_t line, ShadowLine& shadow);
  void InvalidateCoverLocked(const Binding& binding, uint32_t line_shift_hint);
  bool HeldCovers(const GlobalRange& range, bool exclusive_only) const;
  uint64_t ClassifyUncoveredWriteLocked(RegionId region, uint32_t line, ShadowLine& shadow,
                                        const GlobalRange& line_range, uint64_t now,
                                        const EcSite& site);

  const NodeId self_;
  Counters* counters_;

  mutable std::mutex mu_;
  ViolationSink sink_;
  std::map<RegionId, RegionInfo> regions_;
  std::map<uint32_t, Binding> lock_bindings_;
  std::map<uint32_t, Binding> prev_lock_bindings_;  // the binding before the last Rebind
  std::map<uint32_t, Binding> barrier_bindings_;
  std::map<uint32_t, bool> held_;  // lock -> held exclusively
  std::unordered_map<uint64_t, ShadowLine> shadow_;
  std::vector<std::pair<uint32_t, uint32_t>> overlap_reported_;  // lock pairs already flagged
};

}  // namespace midway

#endif  // MIDWAY_SRC_ANALYSIS_EC_CHECKER_H_
