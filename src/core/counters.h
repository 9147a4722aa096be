// Per-processor invocation counters for the primitive operations of both write detection
// schemes. These are the rows of the paper's Table 2; Tables 3–5 and Figures 3–4 are derived
// from them via the CostModel.
#ifndef MIDWAY_SRC_CORE_COUNTERS_H_
#define MIDWAY_SRC_CORE_COUNTERS_H_

#include <atomic>
#include <cstdint>

namespace midway {

// The single source of truth for every counter: X(field_name, "help text"). Counters,
// CounterSnapshot, Reset/From/operator+=/DividedBy, the ForEach visitor (metrics export),
// and the round-trip test are all generated from this list — add a counter here and every
// aggregation path picks it up; there are no parallel lists to keep in lockstep.
#define MIDWAY_COUNTER_FIELDS(X)                                                             \
  /* --- RT-DSM primitives ------------------------------------------------------------ */  \
  X(dirtybits_set, "stores to shared memory instrumented")                                   \
  X(dirtybits_misclassified, "instrumented stores to private memory")                        \
  X(clean_dirtybits_read, "collection scans finding clean lines")                            \
  X(dirty_dirtybits_read, "collection scans finding dirty lines")                            \
  X(dirtybits_updated, "timestamps written while applying updates")                          \
  X(first_level_set, "kRtTwoLevel: first-level bits set")                                    \
  X(first_level_skips, "kRtTwoLevel: clean cover bits that skipped a second-level scan")     \
  X(queue_appends, "kRtQueue: line runs appended")                                           \
  X(queue_merges, "kRtQueue: sequential-merge heuristic hits")                               \
  X(queue_overflows, "kRtQueue: regions falling back to scans")                              \
  X(summary_word_skips, "collection: 64-line summary words whose slots were skipped")        \
  /* --- VM-DSM primitives ------------------------------------------------------------ */  \
  X(write_faults, "page write faults (twin + unprotect)")                                    \
  X(pages_diffed, "page-vs-twin comparisons")                                                \
  X(pages_write_protected, "pages returned to read-only after diff")                         \
  X(twin_bytes_updated, "incoming update bytes applied to twins")                            \
  X(apply_protect_windows, "protection windows opened to apply updates to clean pages")     \
  X(full_data_sends, "grants that shipped full bound data")                                  \
  X(full_sends_rebind, "full sends because the binding changed")                             \
  X(full_sends_log_miss, "full sends because the log was trimmed short")                     \
  X(full_sends_oversize, "full sends because updates exceeded the data")                     \
  /* --- Common ----------------------------------------------------------------------- */  \
  X(data_bytes_sent, "application data shipped (Table 2 row)")                               \
  X(payload_bytes_copied, "send-side payload bytes copied into an arena (zero on RT path)")  \
  X(redundant_bytes_skipped, "RT: update bytes not applied, receiver had newer data")        \
  X(lock_acquires, "lock acquires")                                                          \
  X(lock_acquires_local, "no-message fast-path reacquires")                                  \
  X(lock_grants, "lock grants served")                                                       \
  X(barrier_crossings, "barrier crossings")                                                  \
  X(barrier_release_builds, "barrier release payloads merged at the tree root")              \
  X(barrier_enter_forwards, "combined/supplementary enters forwarded up the tree")           \
  X(barrier_release_relays, "releases relayed down to tree children")                        \
  X(barrier_catchup_releases, "catch-up releases answering stale re-enters")                 \
  X(barrier_reparent_resends, "barrier state re-sends after a membership commit")            \
  X(race_warnings, "race warnings")                                                          \
  /* --- Reliable delivery channel (src/core/reliable.h) ------------------------------- */  \
  X(rel_data_frames, "protocol frames wrapped and sent")                                     \
  X(rel_retransmits, "frames resent after an RTO expiry")                                    \
  X(rel_dup_dropped, "duplicate data frames suppressed by seq")                              \
  X(rel_acks_sent, "standalone cumulative acks sent")                                        \
  X(rel_ooo_buffered, "out-of-order frames parked for a gap")                                \
  X(rel_peer_unreachable, "peers given up on after the retransmit cap")                      \
  /* --- Crash survival (failure detector, recovery, checkpointing) -------------------- */  \
  X(hb_sent, "heartbeats sent")                                                              \
  X(hb_acks, "heartbeat acks received (RTT samples)")                                        \
  X(peers_suspected, "Alive -> Suspect transitions observed")                                \
  X(peers_declared_dead, "Suspect -> Dead transitions observed")                             \
  X(lock_lease_revocations, "leases revoked from a dead owner (lock rolled back)")           \
  X(recovery_epochs, "recovery commits applied")                                             \
  X(stale_epoch_dropped, "pre-recovery lock messages discarded")                             \
  X(checkpoint_records, "records appended to the checkpoint log")                            \
  X(checkpoint_bytes, "payload bytes checkpointed")                                          \
  X(false_death_commits, "own death commits observed while alive (wrongly buried)")          \
  X(protests_sent, "wrongly-buried protest JoinReq broadcasts")                              \
  X(resurrections, "wrongly-buried nodes readmitted via protest rejoin")                     \
  /* --- Entry-consistency checker (src/analysis/ec_checker.h) ------------------------- */  \
  X(ec_unbound_writes, "writes no binding covers")                                           \
  X(ec_wrong_lock_writes, "writes to another lock's bound data")                             \
  X(ec_rebind_gap_writes, "writes into a range Rebind handed away")                          \
  X(ec_lockset_violations, "Eraser candidate lockset went empty")                            \
  X(ec_binding_overlaps, "lock pairs overlapping / false-sharing")                           \
  X(ec_stale_reads, "reads confirmed stale at grant apply")

// Relaxed atomics: incremented from the application thread (trapping) and the communication
// thread (collection) concurrently.
struct Counters {
#define MIDWAY_X(name, help) std::atomic<uint64_t> name{0};
  MIDWAY_COUNTER_FIELDS(MIDWAY_X)
#undef MIDWAY_X

  void Reset() {
#define MIDWAY_X(name, help) name.store(0, std::memory_order_relaxed);
    MIDWAY_COUNTER_FIELDS(MIDWAY_X)
#undef MIDWAY_X
  }
};

// Plain-value snapshot of Counters for aggregation and reporting.
struct CounterSnapshot {
#define MIDWAY_X(name, help) uint64_t name = 0;
  MIDWAY_COUNTER_FIELDS(MIDWAY_X)
#undef MIDWAY_X

  static CounterSnapshot From(const Counters& c) {
    CounterSnapshot s;
#define MIDWAY_X(name, help) s.name = c.name.load(std::memory_order_relaxed);
    MIDWAY_COUNTER_FIELDS(MIDWAY_X)
#undef MIDWAY_X
    return s;
  }

  CounterSnapshot& operator+=(const CounterSnapshot& o) {
#define MIDWAY_X(name, help) name += o.name;
    MIDWAY_COUNTER_FIELDS(MIDWAY_X)
#undef MIDWAY_X
    return *this;
  }

  // Divides every field by n (per-processor averages, as reported in the paper).
  CounterSnapshot DividedBy(uint64_t n) const {
    CounterSnapshot s = *this;
#define MIDWAY_X(name, help) s.name /= n;
    MIDWAY_COUNTER_FIELDS(MIDWAY_X)
#undef MIDWAY_X
    return s;
  }

  // Visits every counter as (name, value, help) in declaration order — the metrics
  // registry and schema tests iterate the fields through this instead of reflection.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
#define MIDWAY_X(name, help) fn(#name, name, help);
    MIDWAY_COUNTER_FIELDS(MIDWAY_X)
#undef MIDWAY_X
  }
};

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_COUNTERS_H_
