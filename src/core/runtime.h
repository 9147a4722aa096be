// The per-processor DSM runtime: entry-consistency protocol engine.
//
// One Runtime instance per DSM "processor". The application thread calls the public API
// (regions, locks, barriers, instrumented writes); a communication thread owned by System
// runs CommLoop(), servicing the message protocol:
//
//   lock transfer:  requester --AcquireReq--> home(lock) --Forward--> owner --Grant--> requester
//   read release:   satellite reader --ReadRelease--> granter
//   barrier:        leaf --BarrierEnter--> parent --(combined)--> ... --> root, then the
//                   root's merged BarrierRelease broadcasts back down the same k-ary tree
//
// The home node (hash-sharded across the mesh, src/core/shard.h) tracks only the
// distributed-queue tail; updates flow directly
// from the previous owner to the requester, carrying exactly the modifications the requester
// is missing (per-line timestamps under RT-DSM, incarnation-tagged update logs under VM-DSM,
// the full bound data under Blast — paper §3.2/§3.4/§3.5).
#ifndef MIDWAY_SRC_CORE_RUNTIME_H_
#define MIDWAY_SRC_CORE_RUNTIME_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/analysis/ec_checker.h"
#include "src/core/checkpoint.h"
#include "src/core/config.h"
#include "src/core/counters.h"
#include "src/core/protocol.h"
#include "src/core/region_table.h"
#include "src/core/reliable.h"
#include "src/core/shard.h"
#include "src/core/strategy.h"
#include "src/core/trace.h"
#include "src/net/transport.h"
#include "src/mem/shared_heap.h"
#include "src/sync/failure_detector.h"
#include "src/sync/invariants.h"
#include "src/sync/lamport_clock.h"

namespace midway {

// Thrown out of the application thread when this node's scheduled crash point is reached
// (FaultProfile::crashes). System's supervisor catches it and, when the schedule says so,
// boots a fresh incarnation of the node.
struct NodeCrashed {
  NodeId node = 0;
  uint32_t sync_point = 0;
  bool restart = false;
};

// Outcome of a synchronization operation under graceful degradation. Default-constructed
// means success, so existing callers that ignore the return value are unaffected.
struct SyncStatus {
  bool ok = true;
  NodeId failed_node = kNoNode;  // set under BarrierPolicy::kFailFast when a peer died
};

// How a Runtime comes into the world: incarnation 0 is the normal boot; a restarted node
// carries its incarnation and the (System-owned) checkpoint log of its previous life.
struct RuntimeBoot {
  CheckpointLog* checkpoint = nullptr;  // null when checkpointing is off
  uint16_t incarnation = 0;
  bool recovered = false;  // replay the checkpoint and rejoin instead of the initial barrier
};

class Runtime : public obs::TraceHook {
 public:
  Runtime(const SystemConfig& config, NodeId self, Transport* transport,
          const RuntimeBoot& boot = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  NodeId self() const { return self_; }
  NodeId nprocs() const { return static_cast<NodeId>(transport_->NumNodes()); }

  // Placement functions — pure, shared by every node (placement is protocol, not policy).
  // Lock homes and recovery coordination are sharded by consistent hashing instead of being
  // pinned to node 0; tests and benches compute expected placements through these.
  static NodeId HomeOf(LockId lock, NodeId nprocs) {
    return static_cast<NodeId>(ShardOwner(kLockShardDomain | lock, nprocs));
  }
  // Ring-walk base for the coordinator of a recovery epoch about `node` (the acting
  // coordinator is the first live successor; see RecoveryCoordinatorLocked).
  static NodeId CoordinatorOf(NodeId node, NodeId nprocs) {
    return static_cast<NodeId>(ShardOwner(kRecoveryShardDomain | node, nprocs));
  }
  const SystemConfig& config() const { return config_; }
  Counters& counters() { return counters_; }
  LamportClock& clock() { return clock_; }
  RegionTable& regions() { return regions_; }
  DetectionStrategy& strategy() { return *strategy_; }

  // --- Setup phase (SPMD: every processor makes identical calls, in the same order) ------

  // Creates a shared region. line_size == 0 selects config.default_line_size.
  Region* CreateSharedRegion(size_t size, uint32_t line_size = 0);
  // Private memory also lives in regions so misclassified instrumented writes hit a no-op
  // header, as in the paper.
  Region* CreatePrivateRegion(size_t size);

  // Deterministic SPMD allocation from a default shared heap region (created on first use;
  // every processor makes the same calls in the same order, so addresses agree). Handy for
  // many small shared objects that do not warrant their own region.
  GlobalAddr SharedAlloc(size_t bytes, size_t align = 8);

  LockId CreateLock();
  BarrierId CreateBarrier();
  void Bind(LockId lock, std::vector<GlobalRange> ranges);
  void BindBarrier(BarrierId barrier, std::vector<GlobalRange> ranges);

  // Ends the (untracked) initialization phase: resets detection state on this processor and
  // synchronizes all processors. Writes after this call are tracked.
  void BeginParallel();

  // Final collective: blocks until every processor has called it. Multi-process launchers
  // use this to keep each node's communication thread serving grants until no node can need
  // one anymore.
  void FinishParallel();

  // --- Parallel phase ---------------------------------------------------------------------

  void Acquire(LockId lock, LockMode mode = LockMode::kExclusive);
  void Release(LockId lock);
  // Changes the data bound to `lock`; the caller must hold it exclusively. The new binding
  // propagates with subsequent grants (quicksort's per-task rebinding).
  void Rebind(LockId lock, std::vector<GlobalRange> ranges);

  // Blocks until every participating node arrives. Under BarrierPolicy::kFailFast the wait
  // aborts when a peer dies, returning {ok=false, failed_node}; under kProceedWithoutDead the
  // tree root completes the round with the survivors. The status is ignorable (wait-forever
  // callers see {true, kNoNode} always).
  SyncStatus BarrierWait(BarrierId barrier);

  // --- Memory access ------------------------------------------------------------------------

  std::byte* Translate(GlobalAddr addr) { return regions_.Translate(addr); }

  template <typename T>
  T* Ptr(GlobalAddr addr) {
    return reinterpret_cast<T*>(Translate(addr));
  }

  // Write-trapping entry point, called by the typed accessors *before* the raw store.
  // Untracked during the initialization phase.
  void NoteWrite(void* ptr, size_t length MIDWAY_EC_SITE_PARAM) {
    if (!parallel_) return;
    RegionHeader* header = Region::HeaderFor(ptr);
    MIDWAY_DCHECK(header->magic == RegionHeader::kMagic);
    auto offset = static_cast<uint32_t>(static_cast<std::byte*>(ptr) - header->data_base);
    strategy_->NoteWrite(header, offset, static_cast<uint32_t>(length));
#ifdef MIDWAY_EC_CHECK
    if (ec_ && header->shared != 0) {
      EcCheckWrite(header->region_id, offset, static_cast<uint32_t>(length), site);
    }
#endif
  }

#ifdef MIDWAY_EC_CHECK
  // Checked-read entry point (Shared<T>::checked_value / SharedArray<T>::CheckedGet, and the
  // read half of compound assignments). Marks unlocked reads of shared lines for stale-read
  // confirmation at the next grant apply. Compiled out entirely without MIDWAY_EC_CHECK.
  void NoteRead(const void* ptr, size_t length,
                const EcSite& site = EcSite::Current()) {
    if (!parallel_ || !ec_) return;
    RegionHeader* header = Region::HeaderFor(const_cast<void*>(ptr));
    MIDWAY_DCHECK(header->magic == RegionHeader::kMagic);
    if (header->shared == 0) return;
    auto offset =
        static_cast<uint32_t>(static_cast<const std::byte*>(ptr) - header->data_base);
    ec_->OnRead(header->region_id, offset, static_cast<uint32_t>(length), clock_.Now(), site);
  }
#endif

  // The checker's aggregated findings for this runtime (empty summary when disabled or
  // compiled out).
  EcSummary EcReport() const { return ec_ ? ec_->Summary() : EcSummary{}; }

  bool in_parallel_phase() const { return parallel_; }

  // --- Communication thread (driven by System) ---------------------------------------------
  void CommLoop();

  // Stops the reliable channel's retransmit thread (no-op without one). Must be called after
  // every application thread has returned — a peer's final barrier release may still need a
  // retransmission to unblock it — and before the transport shuts down.
  void StopReliability();

  // Verdict of the invariant checkers (all zero when config.check_invariants is off).
  struct InvariantReport {
    uint64_t exactly_once_violations = 0;
    uint64_t incarnation_violations = 0;
    // Liveness: nodes that never crashed yet are buried in the final epoch's committed
    // membership view. Per-runtime reports leave this 0 — only System can see which nodes
    // actually crashed, so it fills the field when folding (System::Invariants).
    uint64_t liveness_violations = 0;
    std::string first_violation;  // human-readable description of the first one seen
  };
  InvariantReport Invariants() const;

  // Null unless config.reliable_channel (test introspection).
  ReliableChannel* reliable_channel() { return rel_.get(); }

  // Observability: the (possibly empty) protocol trace and per-lock statistics.
  std::vector<TraceRecord> TraceSnapshot();
  std::vector<LockStat> LockStats();

  // Span sink for this runtime (histograms always aggregate while config.spans is on;
  // System merges them into the metrics registry at teardown).
  obs::SpanSink& spans() { return spans_; }

  // obs::TraceHook: a finished span lands in the trace ring. Every span site runs with mu_
  // held (spans are declared after the lock guard, so their destructors fire before the
  // unlock), which is exactly the TraceBuffer contract.
  void OnSpan(obs::SpanKind kind, uint64_t start_ns, uint64_t dur_ns, uint64_t object,
              uint64_t detail) override;

  // Test hooks.
  struct LockDebugInfo {
    bool resident = false;
    bool held = false;
    LockMode held_mode = LockMode::kExclusive;
    uint32_t pending = 0;
    uint32_t outstanding_shared = 0;
    uint32_t incarnation = 0;
    uint64_t last_seen_ts = 0;
    uint32_t binding_version = 0;
  };
  LockDebugInfo DebugLock(LockId lock);

  struct BarrierDebugInfo {
    uint32_t round = 0;            // next round this node will enter
    uint32_t completed_round = 0;  // rounds fully released here
  };
  // Restart-aware apps consult this after BeginParallel to resume at the right iteration.
  BarrierDebugInfo DebugBarrier(BarrierId barrier);
  // The newest merged release cached here for catch-up re-sends (nullopt when none is).
  std::optional<BarrierReleaseMsg> DebugLastRelease(BarrierId barrier);

  // --- Failure handling -----------------------------------------------------------------

  // True when this incarnation was booted from a checkpoint after a crash (apps use it to
  // skip re-initialization of iteration state the checkpoint already restored).
  bool recovered() const { return recovered_; }
  uint16_t incarnation() const { return incarnation_.load(std::memory_order_relaxed); }

  // Wrongly-buried protest state machine (docs/INTERNALS.md §7): kMember is the normal
  // state; the others are the resurrection path of a live node whose death was committed by
  // a recovery epoch it did not deserve.
  enum class SelfState : uint8_t { kMember, kBuried, kProtesting, kRejoining };
  SelfState DebugSelfState();

  // Suppresses outgoing heartbeats and heartbeat acks so peers falsely suspect this node
  // (transport-agnostic: works over real TCP, where FaultyTransport cannot interpose).
  // No-op without a failure detector. Test hook for the false-suspicion suites.
  void DebugMuteHeartbeats(bool muted);

  // Membership view (kAlive for everyone when failure detection is off).
  NodeHealth PeerHealth(NodeId node) const {
    return detector_ ? detector_->Health(node) : NodeHealth::kAlive;
  }
  // The lock-lease bound: worst-case microseconds between an owner's crash and its lease
  // expiring (0 when failure detection is off). See FailureDetector::LeaseBoundUs.
  uint64_t DebugLeaseBoundUs() const { return detector_ ? detector_->LeaseBoundUs() : 0; }
  uint32_t DebugEpoch();
  // Committed membership view: element n is nonzero iff node n is dead in the last applied
  // recovery commit (all zero before any epoch). Input to the liveness invariant.
  std::vector<uint8_t> DebugMembership();

 private:
  enum class LockState : uint8_t { kInvalid, kHeld, kReleased };

  struct LockRecord {
    Binding binding;
    LockStat stats;  // per-object observability (id filled on creation)
    // Residency: true when this node is the distributed-queue owner (granter).
    bool resident = false;
    LockState state = LockState::kInvalid;
    LockMode held_mode = LockMode::kExclusive;
    uint64_t last_seen_ts = 0;   // RT: time this node's copy of the bound data was consistent
    uint32_t last_seen_inc = 0;  // VM: incarnation last seen here
    uint32_t incarnation = 1;    // VM: current epoch (valid while resident)
    std::deque<LoggedUpdate> update_log;  // VM: saved updates (travels with the lock)
    uint32_t log_base = 0;       // VM: the log covers exactly (log_base, incarnation); our
                                 //   copy of the bound data is complete through log_base, so
                                 //   older requesters get the full data from memory
    uint32_t outstanding_shared = 0;      // shared grants issued and not yet read-released
    std::deque<AcquireMsg> pending;       // forwarded requests awaiting service
    NodeId granter = 0;                   // who granted the current satellite shared hold
    NodeId home_tail = 0;                 // home-side: current distributed-queue tail
    bool waiting = false;                 // app thread blocked in Acquire on this lock
    AcquireMsg waiting_req;               // the in-flight request (re-sent after recovery)
    bool lease_lost = false;              // lease revoked while we held the lock (false death)
    uint32_t burial_inc = 0;              // wrongly buried: incarnation our burying epoch's
                                          //   verdict relabeled this lock with; echoed as
                                          //   rollback_inc on the rejoin report so the
                                          //   election can hand untouched locks back to us
  };

  struct BarrierRecord {
    Binding binding;
    uint32_t round = 0;            // next round this node will enter
    uint32_t completed_round = 0;  // rounds fully released here
    uint64_t last_cross_ts = 0;
    NodeId failed_node = kNoNode;  // fail-fast: set when a release reports a dead peer
    // Reduction-tree accumulator, per round still being assembled at this node. Every node
    // keeps one: chunks from this node's live subtree (its own included) gather here until
    // the subtree is complete, then leave as one combined enter to the effective parent (or,
    // at the root, as the merged release). `have` is indexed by origin node and dedups
    // re-sent chunks; `forwarded` marks that the combined enter already went up, so chunks
    // arriving later (a re-parented orphan) are relayed individually instead of re-merged.
    // `direct` marks origins whose chunk arrived in an enter sent by that origin itself: such
    // a child still holds its own chunk, so a release relayed to it as a leaf can omit it.
    // A membership commit clears the marks (the sender may have been a retired incarnation).
    struct RoundAssembly {
      std::vector<uint8_t> have;
      std::vector<uint8_t> direct;
      std::vector<BarrierChunk> chunks;
      bool forwarded = false;
    };
    std::map<uint32_t, RoundAssembly> assembling;
    // The newest merged release applied here, kept verbatim: a re-entering restart that
    // missed exactly this round is caught up with the same payload its peers applied —
    // same data, same per-origin stamps — so its line timestamps stay interchangeable
    // with everyone else's. One cached copy per node, not N (the merge is built once).
    // A leaf caches the root's merge too: its own chunk, left out of the relayed frame, is
    // spliced back before caching; a release it cannot complete is never cached.
    BarrierReleaseMsg last_release;
    bool has_last_release = false;
    uint64_t last_release_ts = 0;  // release_ts of the newest release applied here
    bool poisoned = false;         // fail-fast: barrier permanently failed
    NodeId poison_node = kNoNode;
  };

  NodeId Home(LockId lock) const { return HomeOf(lock, nprocs()); }

  // --- Barrier tree topology (all callers hold mu_) ---------------------------------------
  // Nodes form a k-ary heap on their static ids (parent(i) = (i-1)/k, k = barrier_fanout);
  // the committed membership view routes around the dead: the effective parent is the
  // nearest live proper heap ancestor, and the effective root is the lowest live id. Every
  // live node's effective parent has a strictly smaller id, so the topology is acyclic and a
  // release relayed downward always terminates. All nodes compute the tree from node_dead_
  // (never local suspicion), so views agree whenever epochs do.
  NodeId BarrierRootLocked() const;
  // Effective parent of `n`; returns n itself when n is the effective root.
  NodeId BarrierParentLocked(NodeId n) const;
  // This node's effective children: live nodes whose effective parent is self_.
  std::vector<NodeId> BarrierChildrenLocked() const;
  // True when no live node has `n` as its effective parent.
  bool BarrierLeafLocked(NodeId n) const;
  // Membership flags (nprocs-sized) of `node`'s effective subtree, node itself included.
  std::vector<uint8_t> BarrierSubtreeLocked(NodeId node) const;

  // Acting home: the first live node at or after the static home. While the static home is
  // dead, its successor serves the distributed queue for the lock — every node can stand in
  // because RecoveryCommit seeds home_tail on all nodes, and node_dead_ only changes with an
  // epoch commit, so requester and receiver views agree whenever their epochs do. Caller
  // holds mu_.
  NodeId ActingHomeLocked(LockId lock) const {
    NodeId h = Home(lock);
    for (NodeId step = 0; step < nprocs() && node_dead_[h]; ++step) {
      h = static_cast<NodeId>((h + 1) % nprocs());
    }
    return h;
  }

  void HandleMessage(const Packet& packet);
  void HandleAcquireReq(const AcquireMsg& msg);
  void HandleForward(const AcquireMsg& msg);
  void HandleGrant(const GrantMsg& msg);
  void HandleReadRelease(const ReadReleaseMsg& msg);
  void HandleBarrierEnter(BarrierEnterMsg& msg);  // non-const: chunks move into the record
  void HandleBarrierRelease(BarrierReleaseMsg& msg);  // non-const: may splice the own chunk

  // Liveness/recovery handlers (runtime_recovery.cc). Heartbeats, join requests, and
  // recovery begin/commit frames travel raw (outside the reliable channel) so liveness and
  // rejoin never depend on per-peer sequencing state a crash invalidates.
  void HandleHeartbeat(const HeartbeatMsg& msg);
  void HandleHeartbeatAck(const HeartbeatAckMsg& msg);
  void HandleJoinReq(const JoinReqMsg& msg);
  void HandleRecoveryBegin(const RecoveryBeginMsg& msg);
  void HandleRecoveryReport(const RecoveryReportMsg& msg);
  void HandleRecoveryCommit(const RecoveryCommitMsg& msg);

  // Epoch guard for lock-protocol messages: current-epoch messages pass, stale ones are
  // dropped (counted + traced), future-epoch ones are deferred until the commit arrives.
  bool AdmitLockMessage(uint32_t epoch, const Packet& packet);

  // Failure-detector glue.
  void StartDetector();
  void OnPeerVerdict(NodeId peer, NodeHealth health, uint16_t incarnation);

  // Coordinator side: start / queue a recovery epoch for `dead`; new_inc == 0 means the
  // node died, > 0 means it is rejoining with that incarnation. Caller holds mu_.
  void StartRecoveryLocked(NodeId dead, uint16_t new_inc);
  void MaybeStartQueuedRecoveryLocked();
  void ElectAndCommitLocked();
  void ApplyRecoveryCommit(const RecoveryCommitMsg& msg);

  // The acting coordinator for a recovery epoch about `node`: the first node in ring order
  // from CoordinatorOf(node) that is not committed-dead, not locally suspected dead, and not
  // the corpse itself. Views can transiently disagree across nodes (dead_pending_ is local);
  // HandleRecoveryBegin's same-epoch tie-break resolves the race. Caller holds mu_.
  NodeId RecoveryCoordinatorLocked(NodeId node) const;
  // Starts any pending recovery this node is designated to coordinate. Invoked on a death
  // verdict and after every commit; also takes over an in-flight epoch whose coordinator
  // itself died (the epoch number was never committed, so reusing it is safe). Caller holds
  // mu_.
  void MaybeCoordinateLocked();

  // Barrier degradation (every node, mu_ held): react to a peer declared dead locally.
  void SweepBarriersForDeadLocked(NodeId dead);

  // --- Barrier tree data path (all callers hold mu_) --------------------------------------
  // Folds fresh chunks, sent by node `from`, into the round's assembly (deduping per
  // origin); forwards already-forwarded rounds' stragglers up individually, otherwise
  // re-evaluates the round.
  void AccumulateChunksLocked(BarrierId barrier, BarrierRecord& b, uint32_t round,
                              NodeId from, std::vector<BarrierChunk>&& chunks);
  // Root: if the round is complete per policy, build the merged release once and apply it.
  // Internal node: if the live subtree is complete, send one combined enter to the parent.
  void MaybeForwardOrReleaseLocked(BarrierId barrier, BarrierRecord& b, uint32_t round);
  // Applies a release at this node (failure/dup handling, update apply, trace, checkpoint,
  // round advance) and relays it to the effective children unless it is a catch-up or
  // still lacks this node's own chunk (msg.omitted_chunk == self_ after a failed splice).
  void ApplyReleaseLocked(BarrierId barrier, BarrierRecord& b, BarrierReleaseMsg& msg);
  // Sends `msg` to every effective child. A leaf child whose own chunk reached this node
  // straight from it this round gets the frame without that chunk (msg.omitted_chunk is set
  // per child while encoding and restored to kNoNode).
  void RelayReleaseLocked(const BarrierRecord& b, BarrierReleaseMsg& msg);
  // Receiver side of the leaf omission: moves this node's own chunk for msg.round from its
  // assembly back into `msg` at its origin-ordered position and clears msg.omitted_chunk.
  // Leaves msg.omitted_chunk set when the assembly holds no own chunk.
  void SpliceOwnChunkLocked(BarrierRecord& b, BarrierReleaseMsg& msg);
  // Answers a stale re-enter (msg.round < completed_round) with a deterministic catch-up
  // release: the cached merged release when it matches `round`, else (only for the direct
  // sender of the enter) this node's full current contribution stamped at the last release.
  void SendCatchUpReleaseLocked(BarrierId barrier, BarrierRecord& b, uint32_t round,
                                NodeId to, bool direct);
  // After a membership commit (death or rejoin) the tree changed shape: clear forwarded
  // flags and re-evaluate every assembling round so orphaned chunks re-home. Duplicate
  // delivery is safe (per-origin dedup at every hop).
  void ResendBarrierStateLocked();

  // Crash schedule. Every sync operation (Acquire/Release/BarrierWait) counts one sync
  // point, 1-based — BeginParallel's internal barrier is point 1. CrashPointArmed consumes
  // the point and reports whether it is this incarnation's scheduled crash; ExecuteCrash
  // (never called with mu_ held — it joins the detector thread, whose verdicts take mu_)
  // throws NodeCrashed. MaybeCrash composes the two for Release/BarrierWait, which crash at
  // entry; Acquire arms at entry but crashes after sending its request, so the node dies as
  // a queued waiter.
  void MaybeCrash();
  uint32_t CrashPointArmed();
  void ExecuteCrash(uint32_t point);

  // Checkpointing (no-op when ckpt_ is null). Caller holds mu_.
  void CheckpointLocked(CheckpointLog::Kind kind, uint32_t object, uint32_t round_or_inc,
                        uint64_t lamport, const UpdateSet& updates);
  // Restart path: rebuild memory/lock/barrier state from the checkpoint log. Caller holds mu_.
  void ReplayCheckpointLocked();
  // Restart path: announce the new incarnation to the coordinator until the recovery commit
  // for it has been applied here.
  void SendJoinAndAwaitCommit();

  // --- Wrongly-buried protest path (runtime_recovery.cc) ----------------------------------
  // App-side quiesce gate at every sync point (Acquire/Release/Rebind/BarrierWait): blocks
  // while a recovery epoch is in flight or while this node is excommunicated, and drives
  // protest retries while waiting. Caller holds mu_ via `lk`.
  void AwaitMembershipLocked(std::unique_lock<std::mutex>& lk);
  // Transition buried -> protesting after applying our own death commit: bump the
  // incarnation in place, rebirth the reliable endpoint, and send the first protest JoinReq.
  // Caller holds mu_.
  void BeginProtestLocked();
  // (Re)broadcast the protest JoinReq (raw frames); stamps last_protest_us_. Caller holds
  // mu_.
  void SendProtestLocked();
  // Comm-thread protest retry driver, called on every raw heartbeat receipt so protests
  // keep flowing even when the app thread is parked between sync points. Takes mu_.
  void MaybeProtestFromCommThread();
  // True when the failure detector locally considers `n`'s current committed incarnation
  // dead (the verdict may never commit). The only sanctioned kDead-health check outside the
  // detector itself — it lives in the recovery module so scripts/lint.sh rule 3 can reject
  // strays. Caller holds mu_.
  bool SuspectedDeadLocked(NodeId n) const;

  // Serves queued forwarded requests while the lock is resident and released. Caller holds
  // mu_.
  void ServePending(LockId lock, LockRecord& rec);
  // Builds and sends a grant for `req`. Caller holds mu_.
  void GrantTo(LockId lock, LockRecord& rec, const AcquireMsg& req);

  void ApplyLoggedUpdates(const std::vector<LoggedUpdate>& updates);
  void DetectBarrierRaces(const std::vector<BarrierChunk>& chunks);

  // EC-checker glue. EcCheckWrite runs on the application thread with no runtime lock held
  // (it takes mu_ only to trace fresh findings); EcTraceLocked is for the sync-path hooks,
  // which already hold mu_. Both are no-ops when ec_ is null.
  void EcCheckWrite(RegionId region, uint32_t offset, uint32_t length, const EcSite& site);
  void EcTraceLocked(uint64_t fresh, uint32_t object);

  void SendTo(NodeId dst, std::vector<std::byte> frame);
  // Zero-copy send for data-carrying frames: when the writer holds borrowed payload
  // segments and no reliable channel is interposed, the frame goes out via scatter-gather
  // SendV with no flat gather, and the writer's buffer is reclaimed into wire_pool_ for the
  // next frame. Caller holds mu_ (all data-path frames are built under it, which also pins
  // the borrowed region memory until the transport call returns).
  void SendFrame(NodeId dst, WireWriter&& w);
  // Hands out the pooled frame buffer (empty on first use). Caller holds mu_.
  std::vector<std::byte> TakeWireBuffer() { return std::move(wire_pool_); }

  const SystemConfig config_;
  const NodeId self_;
  Transport* transport_;
  CheckpointLog* ckpt_ = nullptr;     // owned by System; survives crash/restart
  // This node's incarnation (0 = first life). Atomic because a resurrection bumps it in
  // place under mu_ while the detector thread reads it lock-free to stamp heartbeats.
  std::atomic<uint16_t> incarnation_{0};
  const bool recovered_ = false;

  Counters counters_;
  LamportClock clock_;
  RegionTable regions_;
  std::unique_ptr<DetectionStrategy> strategy_;
  std::unique_ptr<ReliableChannel> rel_;          // non-null iff config.reliable_channel
  std::unique_ptr<ExactlyOnceLedger> ledger_;     // non-null iff config.check_invariants
  std::unique_ptr<IncarnationChecker> inc_check_; // non-null iff config.check_invariants
  std::unique_ptr<EcChecker> ec_;                 // non-null iff config.ec_check (and the
                                                  //   MIDWAY_EC_CHECK hooks are compiled in
                                                  //   for hot-path coverage)

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<LockRecord> locks_;
  std::vector<BarrierRecord> barriers_;
  std::vector<std::byte> wire_pool_;  // recycled frame buffer for SendFrame (guarded by mu_)

  Region* heap_region_ = nullptr;  // lazily created by SharedAlloc
  std::unique_ptr<BumpAllocator> heap_;

  TraceBuffer trace_;
  obs::SpanSink spans_;  // enabled iff config.spans; hooks into trace_ when that is on too
  bool parallel_ = false;
  BarrierId internal_barrier_ = 0;  // created in the constructor; used by BeginParallel
  BarrierId final_barrier_ = 0;     // created in the constructor; used by FinishParallel

  // --- Failure handling state ---------------------------------------------------------------
  std::unique_ptr<FailureDetector> detector_;  // non-null iff config.enable_failure_detection
  const CrashEvent* crash_plan_ = nullptr;     // this incarnation's scheduled crash, if any
  std::atomic<uint32_t> sync_points_{0};
  bool crashed_ = false;

  // All guarded by mu_:
  uint32_t lock_epoch_ = 0;        // bumped by every recovery commit; stamps lock messages
  bool recovering_ = false;        // app-side lock ops blocked while a recovery is in flight
  bool rejoined_ = false;          // restart path: set when our own rejoin commit is applied
  std::vector<uint8_t> node_dead_; // membership as of the last commit (epoch-authoritative)
  std::vector<uint16_t> node_inc_; // latest committed incarnation per node
  std::vector<uint8_t> dead_pending_;  // local Dead verdicts with no commit yet (cleared by
                                       //   the commit, or by an Alive verdict on a false
                                       //   suspicion); steers coordinator election only —
                                       //   routing stays on the committed node_dead_ view
  NodeId inflight_coord_ = kNoNode;    // coordinator of the uncommitted epoch (from Begin)
  std::vector<Packet> deferred_;   // future-epoch lock messages, replayed after the commit

  // Wrongly-buried protest state (all guarded by mu_):
  SelfState self_state_ = SelfState::kMember;
  // Minimum spacing between protest broadcasts (matches a restart's rejoin retry cadence).
  static constexpr uint64_t kProtestIntervalUs = 20'000;
  uint64_t last_protest_us_ = 0;   // steady-clock stamp of the last protest JoinReq burst
  std::optional<obs::Span> resurrection_span_;  // burial -> rejoin commit (ends under mu_)

  // Coordinator-side recovery state (live on whichever node coordinates an epoch), guarded
  // by mu_:
  bool recovery_active_ = false;
  RecoveryBeginMsg current_recovery_;
  std::vector<NodeId> expected_reports_;
  std::map<NodeId, RecoveryReportMsg> recovery_reports_;
  std::deque<std::pair<NodeId, uint16_t>> recovery_queue_;  // {node, new_inc} awaiting a turn
  RecoveryCommitMsg last_commit_;  // kept on every node: any peer can re-serve a committed
                                   //   recovery to a rejoiner whose commit frame was lost
};

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_RUNTIME_H_
