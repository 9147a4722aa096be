// System and runtime configuration.
#ifndef MIDWAY_SRC_CORE_CONFIG_H_
#define MIDWAY_SRC_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/net/faulty_transport.h"

namespace midway {

// Which write detection machinery the DSM uses (paper §3 and §3.5).
enum class DetectionMode : uint8_t {
  kRt = 0,         // RT-DSM: instrumented stores set dirtybit timestamps (paper §3.1–3.2)
  kVmSoft,         // VM-DSM with a simulated ("soft") write fault on the store path
  kVmSigsegv,      // VM-DSM with real mprotect(2) + SIGSEGV write faults (paper §3.3–3.4)
  kBlast,          // §3.5: no detection; ship all bound data on every transfer
  kTwinAll,        // §3.5: no detection; twin everything at acquire, diff everything at grant
  kRtTwoLevel,     // §3.5 extension: two-level dirtybits (first level gates line scans)
  kRtQueue,        // §3.5 extension: update queue — trapping also appends the written line
                   //   run to a queue; collection walks the queue instead of scanning
  kRtHybrid,       // §3.5 extension: VM page protection over the *dirtybit pages* acts as
                   //   the first level; the store fast path is unchanged
  kStandalone,     // uniprocessor, no write detection at all (Figure 2's standalone bars)
};

const char* DetectionModeName(DetectionMode mode);

// What a barrier does when the failure detector declares a participant dead mid-round.
enum class BarrierPolicy : uint8_t {
  kWaitForever = 0,     // trust recovery: a restarted incarnation will re-enter (default)
  kFailFast,            // release every waiter with SyncStatus::kPeerFailed naming the node
  kProceedWithoutDead,  // complete the round over the surviving set; the dead node's
                        //   contribution for this round is lost (sync-point-consistent)
};

enum class TransportKind : uint8_t {
  kInProc = 0,  // mutex/condvar mailboxes
  kTcp,         // real localhost TCP sockets, multiplexed by one epoll loop per node
  kFaulty,      // seeded drop/duplicate/reorder/partition injection (testing; requires the
                //   reliable delivery channel, which System enables automatically)
};

struct SystemConfig {
  uint16_t num_procs = 4;
  DetectionMode mode = DetectionMode::kRt;
  TransportKind transport = TransportKind::kInProc;

  // Software cache line size used for shared regions that do not override it (power of two).
  uint32_t default_line_size = 8;

  // VM-DSM coherency page size. Must be a multiple of the OS page size under kVmSigsegv.
  uint32_t page_size = 4096;

  // VM-DSM: maximum per-lock incarnation-update log length; a requester older than the
  // retained window receives the full bound data instead (paper §3.4: "Midway's
  // implementation of VM-DSM does not save all the updates"). The window must comfortably
  // exceed the number of grants a processor can fall behind between its own acquires
  // (roughly the processor count times the queue depth of hot locks).
  uint32_t max_update_log = 64;

  // Emit diagnostics when entry-consistency races are detected (two processors updating the
  // same cache line in one synchronization interval).
  bool detect_races = true;

  // Two-level dirtybits (kRtTwoLevel): how many lines one first-level bit covers.
  uint32_t first_level_fanout = 64;

  // Update queue (kRtQueue): maximum queued line runs per region before the queue overflows
  // and collection falls back to a full scan of that region's bound ranges.
  uint32_t update_queue_limit = 4096;

  // Protocol trace ring capacity per runtime (0 = tracing off; see src/core/trace.h).
  uint32_t trace_capacity = 0;

  // --- Span observability (src/obs/) ----------------------------------------------------
  // Timed spans around the hot protocol sections, feeding per-op latency histograms (and
  // the trace ring, when that is on). Off = one predictable branch per span site.
  bool spans = false;
  // When nonempty, System teardown merges every node's trace ring into one chrome://tracing
  // document (Perfetto-loadable) at this path. Implies spans and, if trace_capacity is 0, a
  // default ring of 1<<15 records per runtime. Env fallback: MIDWAY_TRACE_PATH.
  std::string trace_path;
  // When nonempty, System teardown dumps the metrics registry (counters + per-lock stats +
  // span histograms) here: Prometheus text for .prom/.txt, JSON otherwise. Implies spans.
  // Env fallback: MIDWAY_METRICS_PATH.
  std::string metrics_path;

  // kFaulty transport parameters (testing): seed and per-packet fault rates.
  FaultProfile fault;

  // Reliable delivery channel (sequence numbers, cumulative acks, retransmission). Forced on
  // by System when the transport is kFaulty; optional over other transports (adds one ack
  // packet per protocol message, so benchmarks leave it off).
  bool reliable_channel = false;
  uint32_t rel_initial_rto_us = 2'000;   // first retransmission timeout
  uint32_t rel_max_rto_us = 50'000;      // exponential backoff cap
  // Total retransmission rounds per peer before the channel gives up, abandons the unacked
  // window, and reports the peer unreachable (0 = retry forever, the pre-PR-2 behavior).
  // The default tolerates ~2s of silence at the backoff cap — far beyond any injected fault
  // short of a real crash.
  uint32_t rel_max_retransmit_rounds = 60;

  // --- Crash survival -------------------------------------------------------------------
  // Heartbeat failure detection (src/sync/failure_detector.h). The suspect/dead thresholds
  // are derived from the observed ack RTT (Jacobson srtt + 4*rttvar), never from a fixed
  // wall-clock constant: suspect after `hb_suspect_mult` missed windows, dead after
  // `hb_dead_mult`. A lock owner's lease equals the dead threshold — ownership is valid
  // exactly as long as the owner's heartbeats keep arriving.
  bool enable_failure_detection = false;
  uint32_t hb_interval_us = 2'000;   // heartbeat period per peer
  uint32_t hb_floor_us = 1'000;      // lower bound on the RTT-derived window (scheduler noise)
  uint32_t hb_suspect_mult = 8;      // windows of silence before Alive -> Suspect
  uint32_t hb_dead_mult = 25;        // windows of silence before Suspect -> Dead
  uint32_t hb_exonerate_mult = 4;    // windows a Dead -> Alive flip holds off re-suspicion
  uint32_t hb_startup_grace_mult = 1;  // threshold scale before first contact (0 = no verdict)

  // Barrier behavior when a participant dies (see BarrierPolicy).
  BarrierPolicy barrier_policy = BarrierPolicy::kWaitForever;

  // Barrier reduction/broadcast tree fanout k: nodes form an id-ordered k-ary heap
  // (parent(i) = (i-1)/k), with dead nodes routed around by re-homing to the nearest live
  // ancestor. A fanout >= num_procs - 1 degenerates to the flat all-to-root star — the
  // centralized-baseline configuration bench/scaleout measures against. Clamped to >= 1.
  uint32_t barrier_fanout = 4;

  // Sync-point checkpointing (src/core/checkpoint.h): append collected/applied update sets
  // with CRC framing at every lock release and barrier crossing, so a restarted node can
  // replay itself back to its last sync point.
  bool checkpointing = false;

  // Invariant checkers (src/sync/invariants.h): exactly-once apply ledger and incarnation
  // monotonicity. Cheap but allocating; enabled by the fault-injection test suites.
  bool check_invariants = false;
  // Free-form context included in invariant-violation reports (tests put "seed=N" here so
  // any failure names the seed that reproduces it).
  std::string invariant_tag;

  // Entry-consistency checker (src/analysis/ec_checker.h): shadow-memory binding/race
  // detection on every instrumented store. Needs the MIDWAY_EC_CHECK compile flag (default
  // ON) for hot-path coverage; with the flag compiled out, enabling this only warns.
  bool ec_check = false;
  // When nonempty, System teardown writes the aggregated findings as JSON here (the CI
  // artifact; see docs/TESTING.md).
  std::string ec_report_path;
  // Detail reports retained per runtime; findings beyond the cap are counted, not detailed.
  uint32_t ec_max_reports = 64;
};

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_CONFIG_H_
