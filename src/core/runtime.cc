#include "src/core/runtime.h"

#include <algorithm>
#include <chrono>

#include "src/common/log.h"

namespace midway {
namespace {

// VM-family strategies filter grants with incarnation-tagged update logs; RT uses per-line
// timestamps; blast/standalone ship the full bound data each transfer.
bool UsesIncarnations(DetectionMode mode) {
  return mode == DetectionMode::kVmSoft || mode == DetectionMode::kVmSigsegv ||
         mode == DetectionMode::kTwinAll;
}

UpdateSet FlattenUpdates(const std::vector<LoggedUpdate>& updates) {
  UpdateSet flat;
  for (const LoggedUpdate& logged : updates) {
    flat.insert(flat.end(), logged.updates.begin(), logged.updates.end());
  }
  return flat;
}

}  // namespace

Runtime::Runtime(const SystemConfig& config, NodeId self, Transport* transport,
                 const RuntimeBoot& boot)
    : config_(config),
      self_(self),
      transport_(transport),
      ckpt_(boot.checkpoint),
      incarnation_(boot.incarnation),
      recovered_(boot.recovered),
      trace_(config.trace_capacity) {
  strategy_ = MakeStrategy(config_, &regions_, &counters_);
  if (config_.spans) {
    // Histograms always aggregate; finished spans land in the trace ring only when that is
    // on too (the hook is this runtime, see OnSpan).
    spans_.Enable(trace_.enabled() ? static_cast<obs::TraceHook*>(this) : nullptr);
  }
  strategy_->set_span_sink(&spans_);
  if (config_.check_invariants) {
    ledger_ = std::make_unique<ExactlyOnceLedger>();
    inc_check_ = std::make_unique<IncarnationChecker>();
    strategy_->set_apply_ledger(ledger_.get());
  }
  if (config_.reliable_channel) {
    rel_ = std::make_unique<ReliableChannel>(transport_, self_, config_, &counters_,
                                             incarnation_);
    // The hook runs on the channel's retransmit thread or the communication thread, never
    // under the channel mutex, so taking mu_ here cannot deadlock against SendTo.
    rel_->set_event_hook([this](RelEvent event, NodeId peer, uint64_t detail) {
      std::lock_guard<std::mutex> lk(mu_);
      TraceEvent te = TraceEvent::kDupDrop;
      if (event == RelEvent::kRetransmit) te = TraceEvent::kRetransmit;
      if (event == RelEvent::kPeerUnreachable) te = TraceEvent::kPeerUnreachable;
      trace_.Record(clock_.Now(), te, 0, peer, detail);
    });
  }
  if (config_.ec_check) {
#ifdef MIDWAY_EC_CHECK
    ec_ = std::make_unique<EcChecker>(self_, &counters_);
#else
    if (self_ == 0) {
      MIDWAY_LOG(Warn) << "SystemConfig::ec_check is set but the MIDWAY_EC_CHECK hooks are "
                          "compiled out; reconfigure with -DMIDWAY_EC_CHECK=ON for coverage";
    }
#endif
  }
  node_dead_.assign(transport_->NumNodes(), 0);
  node_inc_.assign(transport_->NumNodes(), 0);
  dead_pending_.assign(transport_->NumNodes(), 0);
  node_inc_[self_] = incarnation_;
  // Each incarnation of a node consumes that node's next scheduled crash: the first life
  // takes its first CrashEvent, the restarted life the second, and so on.
  uint32_t nth = 0;
  for (const CrashEvent& ev : config_.fault.crashes) {
    if (ev.node != self_) continue;
    if (nth == incarnation_) {
      crash_plan_ = &ev;
      break;
    }
    ++nth;
  }
  if (config_.enable_failure_detection) {
    FailureDetector::Options opts;
    opts.interval_us = config_.hb_interval_us;
    opts.floor_us = config_.hb_floor_us;
    opts.suspect_mult = config_.hb_suspect_mult;
    opts.dead_mult = config_.hb_dead_mult;
    opts.startup_grace_mult = config_.hb_startup_grace_mult;
    detector_ = std::make_unique<FailureDetector>(
        self_, static_cast<NodeId>(transport_->NumNodes()), opts,
        [this](NodeId peer) {
          HeartbeatMsg hb;
          hb.node = self_;
          hb.incarnation = incarnation_;
          hb.send_ts_us = static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count());
          counters_.hb_sent.fetch_add(1, std::memory_order_relaxed);
          // Raw send: heartbeats are periodic and loss-tolerant; routing them through the
          // reliable channel would make liveness depend on the very state a crash destroys.
          transport_->Send(self_, peer, Encode(hb));
        },
        [this](NodeId peer, NodeHealth health, uint16_t inc) {
          OnPeerVerdict(peer, health, inc);
        });
  }
  internal_barrier_ = CreateBarrier();
  final_barrier_ = CreateBarrier();
}

Runtime::~Runtime() {
  if (rel_ != nullptr) rel_->Stop();
}

Region* Runtime::CreateSharedRegion(size_t size, uint32_t line_size) {
  MIDWAY_CHECK(!parallel_) << " regions must be created before BeginParallel";
  // Setup runs on the application thread, but the comm thread is already live and a faster
  // peer may be deep in its parallel phase sending messages that index these same tables —
  // so every setup-phase mutation happens under mu_ (matches the comm thread's handlers).
  std::lock_guard<std::mutex> lk(mu_);
  Region* region = regions_.Create(size, line_size == 0 ? config_.default_line_size : line_size,
                                   /*shared=*/true,
                                   /*mmap_dirtybits=*/config_.mode == DetectionMode::kRtHybrid);
  strategy_->AttachRegion(region);
  if (ec_) {
    ec_->OnRegion(region->id(), region->header()->line_shift, /*shared=*/true, region->size());
  }
  return region;
}

Region* Runtime::CreatePrivateRegion(size_t size) {
  MIDWAY_CHECK(!parallel_);
  std::lock_guard<std::mutex> lk(mu_);  // comm thread indexes regions (see CreateSharedRegion)
  Region* region = regions_.Create(size, config_.default_line_size, /*shared=*/false);
  strategy_->AttachRegion(region);
  if (ec_) {
    ec_->OnRegion(region->id(), region->header()->line_shift, /*shared=*/false, region->size());
  }
  return region;
}

GlobalAddr Runtime::SharedAlloc(size_t bytes, size_t align) {
  MIDWAY_CHECK(!parallel_) << " shared allocation must happen before BeginParallel";
  if (heap_region_ == nullptr) {
    constexpr size_t kHeapBytes = 8 << 20;
    heap_region_ = CreateSharedRegion(kHeapBytes);
    heap_ = std::make_unique<BumpAllocator>(kHeapBytes);
  }
  return GlobalAddr{heap_region_->id(), heap_->Alloc(bytes, align)};
}

LockId Runtime::CreateLock() {
  MIDWAY_CHECK(!parallel_) << " locks must be created before BeginParallel";
  std::lock_guard<std::mutex> lk(mu_);  // comm thread indexes locks_ (see CreateSharedRegion)
  LockRecord rec;
  const NodeId home = HomeOf(static_cast<LockId>(locks_.size()), nprocs());
  if (self_ == home && !recovered_) {
    // The hash-designated home starts as the resident owner of its locks; home tails point
    // at it. Every node computes the same placement (SPMD creation order), so the views
    // agree without any exchange. A restarted node re-creating its locks during replay
    // must NOT re-claim residency: ownership moved while it was dead, and a spurious
    // kResident flag in its rejoin report could elect its stale copy as the owner. The
    // rejoin commit assigns its actual state.
    rec.resident = true;
    rec.state = LockState::kReleased;
  }
  rec.home_tail = home;
  rec.stats.id = static_cast<uint32_t>(locks_.size());
  locks_.push_back(std::move(rec));
  return static_cast<LockId>(locks_.size() - 1);
}

BarrierId Runtime::CreateBarrier() {
  MIDWAY_CHECK(!parallel_) << " barriers must be created before BeginParallel";
  std::lock_guard<std::mutex> lk(mu_);  // comm thread indexes barriers_ (see CreateSharedRegion)
  barriers_.emplace_back();
  return static_cast<BarrierId>(barriers_.size() - 1);
}

void Runtime::Bind(LockId lock, std::vector<GlobalRange> ranges) {
  MIDWAY_CHECK(!parallel_) << " use Rebind during the parallel phase";
  std::lock_guard<std::mutex> lk(mu_);  // comm thread reads bindings (see CreateSharedRegion)
  MIDWAY_CHECK_LT(lock, locks_.size());
  locks_[lock].binding.ranges = std::move(ranges);
  locks_[lock].binding.Normalize();
  if (ec_) {
    ec_->OnLockBinding(lock, locks_[lock].binding, /*is_rebind=*/false);
  }
}

void Runtime::BindBarrier(BarrierId barrier, std::vector<GlobalRange> ranges) {
  MIDWAY_CHECK(!parallel_);
  std::lock_guard<std::mutex> lk(mu_);  // comm thread reads bindings (see CreateSharedRegion)
  MIDWAY_CHECK_LT(barrier, barriers_.size());
  barriers_[barrier].binding.ranges = std::move(ranges);
  barriers_[barrier].binding.Normalize();
  MIDWAY_CHECK(config_.mode != DetectionMode::kBlast ||
               barriers_[barrier].binding.ranges.empty())
      << " Blast supports data bound to locks only (see DESIGN.md)";
  if (ec_) {
    ec_->OnBarrierBinding(barrier, barriers_[barrier].binding);
  }
}

void Runtime::BeginParallel() {
  MIDWAY_CHECK(!parallel_);
  strategy_->OnBeginParallel();
  if (ec_) {
    // Layout diagnostics (binding overlap / false sharing) run once, over the final set of
    // setup-phase bindings.
    const uint64_t fresh = ec_->OnBeginParallel(clock_.Now());
    if (fresh > 0) {
      std::lock_guard<std::mutex> lk(mu_);
      EcTraceLocked(fresh, 0);
    }
  }
  parallel_ = true;
  if (!recovered_) {
    BarrierWait(internal_barrier_);
    StartDetector();
    return;
  }
  // Restart path: rebuild memory and sync-point watermarks from the checkpoint log, start
  // answering heartbeats, then announce the new incarnation and wait for the coordinator's
  // recovery commit before letting the application proceed. The initial barrier is skipped —
  // the surviving nodes crossed it long ago.
  {
    std::lock_guard<std::mutex> lk(mu_);
    ReplayCheckpointLocked();
  }
  StartDetector();
  SendJoinAndAwaitCommit();
}

void Runtime::FinishParallel() { BarrierWait(final_barrier_); }

void Runtime::Acquire(LockId lock, LockMode mode) {
  MIDWAY_CHECK(parallel_) << " Acquire before BeginParallel";
  // A crash scheduled at an Acquire point fires after the acquire's first protocol action:
  // the node dies as a queued waiter (remote path, request in flight) or as the owner
  // (local fast path) — both cases recovery must purge.
  const uint32_t crash_point = CrashPointArmed();
  std::unique_lock<std::mutex> lk(mu_);
  AwaitMembershipLocked(lk);
  strategy_->OnSyncPoint();
  MIDWAY_CHECK_LT(lock, locks_.size());
  LockRecord& rec = locks_[lock];
  MIDWAY_CHECK(rec.state != LockState::kHeld) << " recursive acquire of lock " << lock;
  counters_.lock_acquires.fetch_add(1, std::memory_order_relaxed);

  const bool fast = rec.resident && rec.state == LockState::kReleased && rec.pending.empty() &&
                    (mode == LockMode::kShared || rec.outstanding_shared == 0);
  ++rec.stats.acquires;
  if (fast) {
    rec.state = LockState::kHeld;
    rec.held_mode = mode;
    if (mode == LockMode::kShared) {
      ++rec.outstanding_shared;
    }
    ++rec.stats.local_acquires;
    counters_.lock_acquires_local.fetch_add(1, std::memory_order_relaxed);
    trace_.Record(clock_.Now(), TraceEvent::kAcquireLocal, lock, self_, 0);
    if (ec_) ec_->OnAcquired(lock, mode == LockMode::kExclusive);
    if (crash_point != 0) {
      lk.unlock();
      ExecuteCrash(crash_point);
    }
    return;
  }
  trace_.Record(clock_.Now(), TraceEvent::kAcquireRemote, lock, ActingHomeLocked(lock), 0);
  // Declared after lk, so the destructor (which records into the trace ring) runs before
  // the unlock on every exit path below except the crash path, which cancels it.
  obs::Span wait_span(spans_, obs::SpanKind::kAcquireWait, lock);

  AcquireMsg req;
  req.lock = lock;
  req.mode = mode;
  req.requester = self_;
  req.last_seen_ts = rec.last_seen_ts;
  req.last_seen_inc = rec.last_seen_inc;
  req.binding_version = rec.binding.version;
  req.clock = clock_.Now();
  req.epoch = lock_epoch_;
  rec.waiting = true;
  rec.waiting_req = req;
  SendTo(ActingHomeLocked(lock), Encode(MsgType::kAcquireReq, req));
  if (crash_point != 0) {
    wait_span.Cancel();  // the span must not outlive the lock
    lk.unlock();
    ExecuteCrash(crash_point);
  }
  while (!cv_.wait_for(lk, std::chrono::seconds(2),
                       [&] { return rec.state == LockState::kHeld; })) {
    MIDWAY_LOG(Warn) << "node " << self_ << " stalled acquiring lock " << lock << " (mode "
                     << (mode == LockMode::kShared ? "S" : "X") << ", epoch " << lock_epoch_
                     << ", state " << static_cast<int>(rec.state) << ", resident "
                     << rec.resident << ", pending " << rec.pending.size() << ")";
  }
  rec.waiting = false;
  wait_span.End();
  if (ec_) ec_->OnAcquired(lock, mode == LockMode::kExclusive);
}

void Runtime::Release(LockId lock) {
  MaybeCrash();
  std::unique_lock<std::mutex> lk(mu_);
  AwaitMembershipLocked(lk);
  strategy_->OnSyncPoint();
  MIDWAY_CHECK_LT(lock, locks_.size());
  LockRecord& rec = locks_[lock];
  if (rec.lease_lost) {
    // Our lease was revoked while we were (falsely) declared dead: the lock has a new owner
    // and our critical section's writes never shipped. Discard the hold silently — the
    // revocation itself was counted and traced at the coordinator.
    rec.lease_lost = false;
    rec.state = LockState::kInvalid;
    if (ec_) ec_->OnReleased(lock);
    return;
  }
  MIDWAY_CHECK(rec.state == LockState::kHeld) << " release of lock " << lock << " not held";

  if (!rec.resident) {
    // Satellite shared holder: release eagerly back to the granter so queued writers can
    // proceed. The local copy stays valid for reading until the next acquire.
    MIDWAY_CHECK(rec.held_mode == LockMode::kShared);
    rec.state = LockState::kInvalid;
    if (ec_) ec_->OnReleased(lock);
    ReadReleaseMsg msg{lock, self_, clock_.Now(), lock_epoch_};
    trace_.Record(clock_.Now(), TraceEvent::kReadRelease, lock, rec.granter, 0);
    SendTo(rec.granter, Encode(msg));
    return;
  }

  if (rec.held_mode == LockMode::kShared) {
    MIDWAY_CHECK_GT(rec.outstanding_shared, 0u);
    --rec.outstanding_shared;
  }
  // Exclusive releases are lazy (paper §3): the lock stays resident until requested.
  rec.state = LockState::kReleased;
  if (ec_) ec_->OnReleased(lock);
  // Sync-point watermark: on replay this restores the Lamport clock even when no transfer
  // happened around the release.
  CheckpointLocked(CheckpointLog::Kind::kClockMark, lock, rec.incarnation, clock_.Now(), {});
  ServePending(lock, rec);
}

void Runtime::Rebind(LockId lock, std::vector<GlobalRange> ranges) {
  std::unique_lock<std::mutex> lk(mu_);
  AwaitMembershipLocked(lk);
  MIDWAY_CHECK_LT(lock, locks_.size());
  LockRecord& rec = locks_[lock];
  MIDWAY_CHECK(rec.state == LockState::kHeld && rec.held_mode == LockMode::kExclusive)
      << " Rebind requires holding lock " << lock << " exclusively";
  rec.binding.ranges = std::move(ranges);
  rec.binding.Normalize();
  ++rec.binding.version;
  ++rec.stats.rebinds;
  trace_.Record(clock_.Now(), TraceEvent::kRebind, lock, self_, rec.binding.version);
  // The saved updates describe the old binding; drop them. The next transfer ships the full
  // bound data (exactly the paper's quicksort behaviour under VM-DSM).
  rec.update_log.clear();
  rec.log_base = rec.incarnation == 0 ? 0 : rec.incarnation - 1;
  if (ec_) {
    ec_->OnLockBinding(lock, rec.binding, /*is_rebind=*/true);
  }
}

NodeId Runtime::BarrierRootLocked() const {
  for (NodeId n = 0; n < nprocs(); ++n) {
    if (!node_dead_[n]) return n;
  }
  return self_;  // only reachable while wrongly buried; the protest path sorts it out
}

NodeId Runtime::BarrierParentLocked(NodeId n) const {
  const NodeId root = BarrierRootLocked();
  if (n == root) return n;
  const uint32_t k = std::max<uint32_t>(1, config_.barrier_fanout);
  for (uint32_t a = n; a > 0;) {
    a = (a - 1) / k;
    if (!node_dead_[a]) return static_cast<NodeId>(a);
  }
  // Every heap ancestor is dead: re-home to the effective root (root < n since n is live
  // and not the root, so the parent id stays strictly smaller and the tree stays acyclic).
  return root;
}

std::vector<NodeId> Runtime::BarrierChildrenLocked() const {
  std::vector<NodeId> children;
  for (NodeId n = 0; n < nprocs(); ++n) {
    if (n == self_ || node_dead_[n]) continue;
    if (BarrierParentLocked(n) == self_) children.push_back(n);
  }
  return children;
}

bool Runtime::BarrierLeafLocked(NodeId n) const {
  for (NodeId m = static_cast<NodeId>(n + 1); m < nprocs(); ++m) {
    if (!node_dead_[m] && BarrierParentLocked(m) == n) return false;
  }
  return true;  // effective parents have smaller ids, so only larger ids can be children
}

std::vector<uint8_t> Runtime::BarrierSubtreeLocked(NodeId node) const {
  // Effective parents have strictly smaller ids, so one increasing-id pass suffices: a live
  // node is in the subtree iff its effective parent is (descendants all have ids > node).
  std::vector<uint8_t> in(nprocs(), 0);
  if (node < in.size()) in[node] = 1;
  for (NodeId m = static_cast<NodeId>(node + 1); m < nprocs(); ++m) {
    if (node_dead_[m]) continue;
    in[m] = in[BarrierParentLocked(m)];
  }
  return in;
}

SyncStatus Runtime::BarrierWait(BarrierId barrier) {
  MaybeCrash();
  std::unique_lock<std::mutex> lk(mu_);
  // Barriers quiesce on membership too: a buried node entering a round would be counted by
  // the tree against an epoch that excludes it. The gate also drives protest retries.
  AwaitMembershipLocked(lk);
  strategy_->OnSyncPoint();
  MIDWAY_CHECK_LT(barrier, barriers_.size());
  BarrierRecord& b = barriers_[barrier];
  if (b.failed_node != kNoNode) {
    return SyncStatus{false, b.failed_node};  // fail-fast: barrier permanently failed
  }
  const uint32_t round = b.round;
  const uint64_t enter_ts = clock_.Tick();
  // Covers collect + send + the wait for the release; ends at scope exit, still under lk.
  obs::Span barrier_span(spans_, obs::SpanKind::kBarrierWait, barrier);

  BarrierChunk own;
  own.node = self_;
  own.enter_ts = enter_ts;
  if (nprocs() > 1) {
    strategy_->Collect(b.binding, b.last_cross_ts, enter_ts, &own.updates);
  }
  const uint64_t enter_bytes = UpdateBytes(own.updates);
  if (nprocs() > 1) {
    counters_.data_bytes_sent.fetch_add(enter_bytes, std::memory_order_relaxed);
  }
  barrier_span.set_detail(enter_bytes);
  trace_.Record(enter_ts, TraceEvent::kBarrierEnter, barrier, BarrierParentLocked(self_),
                enter_bytes);
  CheckpointLocked(CheckpointLog::Kind::kBarrierSend, barrier, round, enter_ts, own.updates);
  // Fold the own chunk into this node's accumulator: a leaf forwards it up immediately, an
  // internal node waits for its subtree, and the root may complete the round on the spot
  // (nprocs == 1 releases synchronously here, before the wait).
  std::vector<BarrierChunk> own_chunks;
  own_chunks.push_back(std::move(own));
  AccumulateChunksLocked(barrier, b, round, self_, std::move(own_chunks));
  while (!cv_.wait_for(lk, std::chrono::seconds(2), [&] {
    return b.completed_round > round || b.failed_node != kNoNode;
  })) {
    MIDWAY_LOG(Warn) << "node " << self_ << " stalled in barrier " << barrier << " round "
                     << round << " (completed " << b.completed_round << ")";
  }
  if (b.completed_round <= round) {
    return SyncStatus{false, b.failed_node};  // woken by a fail-fast poison, not a release
  }
  b.round = round + 1;
  b.last_cross_ts = clock_.Now();
  counters_.barrier_crossings.fetch_add(1, std::memory_order_relaxed);
  return SyncStatus{};
}

namespace {

// Frames that bypass the reliable channel: heartbeats are periodic (loss-tolerant by
// design), and join/recovery frames must reach nodes whose sequencing state a crash has
// invalidated. Their tags are disjoint from RelType, so a peek disambiguates.
bool IsRawControl(MsgType type) {
  return type == MsgType::kHeartbeat || type == MsgType::kHeartbeatAck ||
         type == MsgType::kJoinReq || type == MsgType::kRecoveryBegin ||
         type == MsgType::kRecoveryCommit;
}

}  // namespace

void Runtime::CommLoop() {
  // Batched delivery: event-loop transports hand over every queued packet under one mailbox
  // lock; handling the whole batch before blocking again coalesces wakeups on the hot path.
  std::vector<Packet> batch;
  if (rel_ == nullptr) {
    while (transport_->RecvBatch(self_, &batch)) {
      for (const Packet& packet : batch) {
        HandleMessage(packet);
      }
      batch.clear();
    }
    return;
  }
  // Reliable mode: raw control frames (liveness/rejoin) are handled directly; everything
  // else is a reliability frame — unwrap it, then handle whatever became deliverable in
  // order (none for an ack or an out-of-order arrival, several when a retransmission fills
  // a gap).
  std::vector<std::vector<std::byte>> ready;
  while (transport_->RecvBatch(self_, &batch)) {
    for (Packet& packet : batch) {
      MsgType type;
      if (PeekType(packet.bytes(), &type) && IsRawControl(type)) {
        HandleMessage(packet);
        continue;
      }
      ready.clear();
      rel_->OnPacket(packet.src, packet.bytes(), &ready);
      for (std::vector<std::byte>& frame : ready) {
        Packet app = Packet::Owned(packet.src, std::move(frame));
        HandleMessage(app);
      }
    }
    batch.clear();
  }
}

void Runtime::StopReliability() {
  if (detector_ != nullptr) detector_->Stop();
  if (rel_ != nullptr) rel_->Stop();
}

Runtime::InvariantReport Runtime::Invariants() const {
  InvariantReport report;
  if (ledger_ != nullptr) {
    report.exactly_once_violations = ledger_->violations();
    report.first_violation = ledger_->first_violation();
  }
  if (inc_check_ != nullptr) {
    report.incarnation_violations = inc_check_->violations();
    if (report.first_violation.empty()) {
      report.first_violation = inc_check_->first_violation();
    }
  }
  if (!report.first_violation.empty() && !config_.invariant_tag.empty()) {
    report.first_violation += " [" + config_.invariant_tag + "]";
  }
  return report;
}

void Runtime::HandleMessage(const Packet& packet) {
  MsgType type;
  if (!PeekType(packet.bytes(), &type)) {
    MIDWAY_LOG(Warn) << "empty frame from node " << packet.src;
    return;
  }
  switch (type) {
    case MsgType::kAcquireReq: {
      AcquireMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad AcquireReq";
      if (AdmitLockMessage(msg.epoch, packet)) HandleAcquireReq(msg);
      break;
    }
    case MsgType::kForward: {
      AcquireMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad Forward";
      if (AdmitLockMessage(msg.epoch, packet)) HandleForward(msg);
      break;
    }
    case MsgType::kGrant: {
      GrantMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad Grant";
      if (AdmitLockMessage(msg.epoch, packet)) HandleGrant(msg);
      break;
    }
    case MsgType::kReadRelease: {
      ReadReleaseMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad ReadRelease";
      if (AdmitLockMessage(msg.epoch, packet)) HandleReadRelease(msg);
      break;
    }
    case MsgType::kBarrierEnter: {
      BarrierEnterMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad BarrierEnter";
      HandleBarrierEnter(msg);
      break;
    }
    case MsgType::kBarrierRelease: {
      BarrierReleaseMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad BarrierRelease";
      HandleBarrierRelease(msg);
      break;
    }
    case MsgType::kHeartbeat: {
      HeartbeatMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad Heartbeat";
      HandleHeartbeat(msg);
      break;
    }
    case MsgType::kHeartbeatAck: {
      HeartbeatAckMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad HeartbeatAck";
      HandleHeartbeatAck(msg);
      break;
    }
    case MsgType::kJoinReq: {
      JoinReqMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad JoinReq";
      HandleJoinReq(msg);
      break;
    }
    case MsgType::kRecoveryBegin: {
      RecoveryBeginMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad RecoveryBegin";
      HandleRecoveryBegin(msg);
      break;
    }
    case MsgType::kRecoveryReport: {
      RecoveryReportMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad RecoveryReport";
      HandleRecoveryReport(msg);
      break;
    }
    case MsgType::kRecoveryCommit: {
      RecoveryCommitMsg msg;
      MIDWAY_CHECK(Decode(packet.bytes(), &msg)) << " bad RecoveryCommit";
      HandleRecoveryCommit(msg);
      break;
    }
  }
}

bool Runtime::AdmitLockMessage(uint32_t epoch, const Packet& packet) {
  std::lock_guard<std::mutex> lk(mu_);
  if (epoch == lock_epoch_) return true;
  if (epoch < lock_epoch_) {
    // A message from before the last recovery commit: the lock state it refers to has been
    // reconstructed; acting on it would corrupt the new epoch (e.g. a stale grant handing
    // ownership from a dead node).
    counters_.stale_epoch_dropped.fetch_add(1, std::memory_order_relaxed);
    trace_.Record(clock_.Now(), TraceEvent::kStaleDrop, epoch, packet.src, lock_epoch_);
    return false;
  }
  // A message from an epoch this node has not committed yet (the sender applied the commit
  // first): defer it until our commit arrives, then replay.
  deferred_.push_back(packet);
  return false;
}

void Runtime::HandleAcquireReq(const AcquireMsg& msg) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_.Observe(msg.clock);
  // Normally the static home; while that node is dead we stand in as acting home (the epoch
  // guard admitted this message, so the requester's membership view matches ours).
  MIDWAY_CHECK_EQ(ActingHomeLocked(msg.lock), self_);
  LockRecord& rec = locks_[msg.lock];
  // Distributed queue: forward to the current tail; exclusive requests become the new tail.
  const NodeId target = rec.home_tail;
  if (msg.mode == LockMode::kExclusive) {
    rec.home_tail = msg.requester;
  }
  SendTo(target, Encode(MsgType::kForward, msg));
}

void Runtime::HandleForward(const AcquireMsg& msg) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_.Observe(msg.clock);
  LockRecord& rec = locks_[msg.lock];
  rec.pending.push_back(msg);
  ServePending(msg.lock, rec);
}

void Runtime::ServePending(LockId lock, LockRecord& rec) {
  if (!rec.resident || rec.state != LockState::kReleased) {
    return;
  }
  while (!rec.pending.empty()) {
    const AcquireMsg req = rec.pending.front();
    // Only a *committed* death may drop a queued request: the epoch commit that buried the
    // requester reconstructs every lock's queue, so a copy still here is from before that
    // epoch and granting it would strand the lock on a corpse (or a pre-resurrection life).
    if (req.requester != self_ && node_dead_[req.requester]) {
      rec.pending.pop_front();
      continue;
    }
    // A requester the local detector suspects dead (verdict not epoch-committed) is parked,
    // not dropped: the suspicion may be false and never commit, and a dropped acquire has no
    // retry path — the requester re-sends only on an epoch commit, so dropping here stranded
    // a live-but-slow node forever. The queue head blocks until the verdict either commits
    // (the commit clears pending and re-issues live waiters) or is withdrawn by an Alive
    // flip (OnPeerVerdict re-serves every lock). FIFO order is preserved either way.
    if (req.requester != self_ && SuspectedDeadLocked(req.requester)) {
      return;
    }
    if (req.mode == LockMode::kShared) {
      rec.pending.pop_front();
      GrantTo(lock, rec, req);
      ++rec.outstanding_shared;
      continue;
    }
    // Exclusive transfer: wait until all shared holders have released.
    if (rec.outstanding_shared > 0) {
      return;
    }
    rec.pending.pop_front();
    GrantTo(lock, rec, req);
    rec.resident = false;
    rec.state = LockState::kInvalid;
    // Anything still queued belongs to a *later* tenure of ours: the home forwards requests
    // to the distributed-queue tail, and we can already be the tail again (after a self
    // re-request, or after requesting the lock back while this exclusive waited on readers).
    // Those entries are served in FIFO order after we reacquire and release.
    return;
  }
}

void Runtime::GrantTo(LockId lock, LockRecord& rec, const AcquireMsg& req) {
  counters_.lock_grants.fetch_add(1, std::memory_order_relaxed);
  // Collect + serialize, through the send call. Caller holds mu_, so the explicit End
  // below records under the lock.
  obs::Span build_span(spans_, obs::SpanKind::kGrantBuild, lock);
  const uint64_t grant_ts = clock_.Tick();
  GrantMsg g;
  g.lock = lock;
  g.mode = req.mode;
  g.granter = self_;
  g.grant_ts = grant_ts;
  g.epoch = lock_epoch_;

  const bool self_grant = req.requester == self_;
  const bool stale_binding = req.binding_version < rec.binding.version;
  if (stale_binding && !self_grant) {
    g.binding = rec.binding;
  }

  if (self_grant) {
    // Our copy is current by definition; skip collection and keep the epoch unchanged
    // (HandleGrant will restore incarnation to g.incarnation + 1 == rec.incarnation).
    g.incarnation = rec.incarnation - 1;
  } else if (strategy_->HasLineTimestamps()) {
    // RT-DSM: ship exactly the lines newer than the requester's last-seen time. A stale
    // binding means the requester may never have seen the new ranges: be conservative.
    const uint64_t since = stale_binding ? 0 : req.last_seen_ts;
    UpdateSet set;
    strategy_->Collect(rec.binding, since, grant_ts, &set);
    counters_.data_bytes_sent.fetch_add(UpdateBytes(set), std::memory_order_relaxed);
    g.updates.push_back(LoggedUpdate{0, std::move(set)});
    g.incarnation = rec.incarnation;
  } else if (!UsesIncarnations(config_.mode)) {
    // Blast (and the degenerate standalone case): full bound data on every transfer.
    UpdateSet set;
    strategy_->Collect(rec.binding, 0, grant_ts, &set);
    counters_.data_bytes_sent.fetch_add(UpdateBytes(set), std::memory_order_relaxed);
    g.full_data = true;
    g.updates.push_back(LoggedUpdate{0, std::move(set)});
    g.incarnation = rec.incarnation;
  } else {
    // VM-DSM (paper §3.4): close the current incarnation with the modifications diffed from
    // the twins, then serve the requester from the saved update log — or ship the full
    // bound data when the log no longer reaches back far enough (or the binding changed, or
    // the concatenated updates would exceed the data itself). A requester with a stale
    // binding gets the full data *without any diff being performed* — the paper's
    // explanation for quicksort favouring VM-DSM ("the incarnation number is incremented
    // which causes all data bound to the lock to be sent without performing a diff").
    bool covered = false;
    uint64_t log_bytes = 0;
    if (!stale_binding) {
      UpdateSet mods;
      strategy_->Collect(rec.binding, 0, grant_ts, &mods);
      rec.update_log.push_back(LoggedUpdate{rec.incarnation, std::move(mods)});
      while (rec.update_log.size() > config_.max_update_log) {
        rec.log_base = rec.update_log.front().incarnation;
        rec.update_log.pop_front();
      }
      // The log holds exactly the incarnations in (log_base, current]; a requester that has
      // seen log_base or later can be served incrementally.
      covered = req.last_seen_inc >= rec.log_base;
      if (covered) {
        for (const LoggedUpdate& entry : rec.update_log) {
          if (entry.incarnation > req.last_seen_inc) {
            g.updates.push_back(entry);
            log_bytes += UpdateBytes(entry.updates);
          }
        }
      }
    }
    if (covered && log_bytes <= rec.binding.TotalBytes()) {
      g.log_base = req.last_seen_inc;  // entries cover (last_seen, incarnation]
    } else {
      if (stale_binding) {
        counters_.full_sends_rebind.fetch_add(1, std::memory_order_relaxed);
      } else if (!covered) {
        counters_.full_sends_log_miss.fetch_add(1, std::memory_order_relaxed);
      } else {
        counters_.full_sends_oversize.fetch_add(1, std::memory_order_relaxed);
      }
      // Full send: the first update is the complete bound data; the rest is our retained
      // incremental log, handing the requester our serving depth (it "saves the updates it
      // receives", paper §3.4 — including across full transfers).
      g.updates.clear();
      UpdateSet full;
      strategy_->CollectFull(rec.binding, grant_ts, &full);
      log_bytes = UpdateBytes(full);
      g.full_data = true;
      counters_.full_data_sends.fetch_add(1, std::memory_order_relaxed);
      g.updates.push_back(LoggedUpdate{rec.incarnation, std::move(full)});
      if (!stale_binding) {
        for (const LoggedUpdate& entry : rec.update_log) {
          g.updates.push_back(entry);
          log_bytes += UpdateBytes(entry.updates);
        }
        g.log_base = rec.log_base;
      } else {
        g.log_base = rec.incarnation;  // nothing retained describes the new binding
      }
    }
    counters_.data_bytes_sent.fetch_add(log_bytes, std::memory_order_relaxed);
    g.incarnation = rec.incarnation;
    rec.incarnation += 1;
    rec.last_seen_inc = g.incarnation;
  }

  if (!self_grant) {
    rec.last_seen_ts = grant_ts;  // the granter's copy is consistent as of the transfer
  }
  uint64_t granted_bytes = UpdateBytes(g.updates);
  ++rec.stats.grants;
  rec.stats.bytes_granted += granted_bytes;
  if (g.full_data) {
    ++rec.stats.full_sends;
  }
  if (!self_grant) {
    CheckpointLocked(CheckpointLog::Kind::kLockCollect, lock, g.incarnation, grant_ts,
                     FlattenUpdates(g.updates));
  }
  trace_.Record(clock_.Now(), TraceEvent::kGrantSent, lock, req.requester, granted_bytes);
  SendFrame(req.requester, EncodeW(g, TakeWireBuffer()));
  build_span.End(granted_bytes);
}

void Runtime::HandleGrant(const GrantMsg& g) {
  std::lock_guard<std::mutex> lk(mu_);
  obs::Span apply_span(spans_, obs::SpanKind::kGrantApply, g.lock);
  clock_.Observe(g.grant_ts);
  if (inc_check_ != nullptr && UsesIncarnations(config_.mode)) {
    // RT/blast modes never advance incarnations, so only the VM family is checkable.
    inc_check_->RecordGrant(g.lock, g.incarnation, /*remote=*/g.granter != self_);
  }
  LockRecord& rec = locks_[g.lock];
  if (g.binding.has_value()) {
    rec.binding = *g.binding;
    if (ec_) {
      // A grant-carried binding is another node's Rebind taking effect here.
      ec_->OnLockBinding(g.lock, rec.binding, /*is_rebind=*/true);
    }
  }
  const uint64_t prev_seen_ts = rec.last_seen_ts;
  if (g.granter != self_) {
    ApplyLoggedUpdates(g.updates);
    CheckpointLocked(CheckpointLog::Kind::kLockApply, g.lock, g.incarnation, g.grant_ts,
                     FlattenUpdates(g.updates));
    if (ec_) {
      // Updates just overwrote local lines: any checked read of them since prev_seen_ts was
      // stale. mu_ is held; the checker never calls back into the runtime.
      EcTraceLocked(ec_->OnGrantApplied(g.lock, g.updates, prev_seen_ts, clock_.Now()),
                    g.lock);
    }
  }
  rec.last_seen_ts = g.grant_ts;
  rec.last_seen_inc = g.incarnation;
  if (UsesIncarnations(config_.mode) && g.granter != self_) {
    // Save the received updates — for *both* modes: the releasing processor has the
    // complete set of prior updates available for future grants (paper §3.4), and a shared
    // holder that later becomes the exclusive owner must not have a gap in its log (its
    // last_seen advanced here, so a future append must stay contiguous). A full-data grant
    // needs no stored blob — the local copy *is* the complete state through g.incarnation —
    // so the first entry (the blob) is dropped and the granter's carried log, covering
    // (g.log_base, g.incarnation], is adopted wholesale.
    if (g.full_data) {
      rec.update_log.clear();
      rec.log_base = g.log_base;
      for (size_t i = 1; i < g.updates.size(); ++i) {
        rec.update_log.push_back(g.updates[i]);
      }
    } else {
      for (const LoggedUpdate& entry : g.updates) {
        rec.update_log.push_back(entry);
      }
    }
    while (rec.update_log.size() > config_.max_update_log) {
      rec.log_base = rec.update_log.front().incarnation;
      rec.update_log.pop_front();
    }
  }
  if (g.mode == LockMode::kExclusive) {
    rec.resident = true;
    rec.incarnation = g.incarnation + 1;
  } else {
    rec.granter = g.granter;
  }
  rec.state = LockState::kHeld;
  rec.held_mode = g.mode;
  trace_.Record(clock_.Now(), TraceEvent::kGrantReceived, g.lock, g.granter,
                UpdateBytes(g.updates));
  apply_span.End(UpdateBytes(g.updates));
  cv_.notify_all();
}

void Runtime::HandleReadRelease(const ReadReleaseMsg& msg) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_.Observe(msg.clock);
  LockRecord& rec = locks_[msg.lock];
  if (rec.outstanding_shared == 0) {
    // Post-recovery the shared count is reconstructed from holder reports; a release from a
    // holder whose report raced the commit can arrive against a zero count. Harmless.
    return;
  }
  --rec.outstanding_shared;
  ServePending(msg.lock, rec);
}

void Runtime::HandleBarrierEnter(BarrierEnterMsg& msg) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_.Observe(msg.clock);
  BarrierRecord& b = barriers_[msg.barrier];
  if (b.poisoned) {
    // Fail-fast: the barrier is permanently failed; answer every entry with the verdict
    // (the sender relays it down its own subtree).
    BarrierReleaseMsg rel;
    rel.barrier = msg.barrier;
    rel.release_ts = clock_.Tick();
    rel.round = msg.round;
    rel.failed_node = b.poison_node;
    SendFrame(msg.node, EncodeW(rel, TakeWireBuffer()));
    return;
  }
  if (msg.round < b.completed_round) {
    // An entry for a round already completed here — a restarted node resuming from its
    // checkpoint re-enters a round whose release it never saw (the release went to its dead
    // incarnation), possibly several rounds back. The merged release for that round is
    // gone, so answer each origin with a deterministic catch-up release; any lag clears one
    // round per re-enter.
    for (const BarrierChunk& c : msg.chunks) {
      SendCatchUpReleaseLocked(msg.barrier, b, msg.round, c.node,
                               /*direct=*/c.node == msg.node);
    }
    return;
  }
  AccumulateChunksLocked(msg.barrier, b, msg.round, msg.node, std::move(msg.chunks));
}

void Runtime::AccumulateChunksLocked(BarrierId barrier, BarrierRecord& b, uint32_t round,
                                     NodeId from, std::vector<BarrierChunk>&& chunks) {
  BarrierRecord::RoundAssembly& a = b.assembling[round];
  if (a.have.empty()) {
    a.have.assign(nprocs(), 0);
    a.direct.assign(nprocs(), 0);
  }
  std::vector<BarrierChunk> fresh;
  for (BarrierChunk& c : chunks) {
    if (c.node >= a.have.size() || a.have[c.node]) continue;  // dup (re-sent after re-parent)
    a.have[c.node] = 1;
    a.direct[c.node] = c.node == from ? 1 : 0;
    fresh.push_back(std::move(c));
  }
  if (fresh.empty()) return;
  if (a.forwarded && self_ != BarrierRootLocked()) {
    // The combined enter already went up; relay the stragglers (an orphaned subtree that
    // re-homed here after a death commit) individually so the round can still complete.
    for (BarrierChunk& c : fresh) a.chunks.push_back(c);
    BarrierEnterMsg up;
    up.barrier = barrier;
    up.node = self_;
    up.round = round;
    up.clock = clock_.Tick();
    up.chunks = std::move(fresh);
    counters_.barrier_enter_forwards.fetch_add(1, std::memory_order_relaxed);
    SendFrame(BarrierParentLocked(self_), EncodeW(up, TakeWireBuffer()));
    return;
  }
  for (BarrierChunk& c : fresh) a.chunks.push_back(std::move(c));
  MaybeForwardOrReleaseLocked(barrier, b, round);
}

void Runtime::MaybeForwardOrReleaseLocked(BarrierId barrier, BarrierRecord& b,
                                          uint32_t round) {
  auto it = b.assembling.find(round);
  if (it == b.assembling.end()) return;
  BarrierRecord::RoundAssembly& a = it->second;
  const bool skip_dead = config_.barrier_policy == BarrierPolicy::kProceedWithoutDead;
  if (self_ == BarrierRootLocked()) {
    // Root: the round completes when every node that owes a chunk has one. Committed-dead
    // nodes still owe under kWaitForever/kFailFast — recovery trusts a restarted
    // incarnation to re-enter; only kProceedWithoutDead writes them off (locally-declared
    // deaths count before their commit lands, so the sweep that completes a round the dead
    // node was the last holdout of runs at verdict time).
    for (NodeId n = 0; n < nprocs(); ++n) {
      if (a.have[n]) continue;
      if (skip_dead && (node_dead_[n] || dead_pending_[n])) continue;
      return;
    }
    if (config_.detect_races) {
      DetectBarrierRaces(a.chunks);
    }
    // Merge exactly once: one release payload per round, shared by every receiver (each
    // skips its own chunk on apply). The old manager built a distinct N-1 merge per node.
    // Origin order makes the merge independent of arrival order, and gives a leaf a fixed
    // place to splice its own chunk back into.
    BarrierReleaseMsg rel;
    rel.barrier = barrier;
    rel.release_ts = clock_.Tick();
    rel.round = round;
    rel.chunks = std::move(a.chunks);
    std::sort(rel.chunks.begin(), rel.chunks.end(),
              [](const BarrierChunk& x, const BarrierChunk& y) { return x.node < y.node; });
    counters_.barrier_release_builds.fetch_add(1, std::memory_order_relaxed);
    ApplyReleaseLocked(barrier, b, rel);  // applies here, then relays down the tree
    return;
  }
  if (a.forwarded) return;
  // Internal node / leaf: forward one combined enter once the live subtree is in. The
  // completeness gate is a batching optimization, not a correctness condition — chunks
  // arriving later still flow up as supplementary relays (see AccumulateChunksLocked).
  const std::vector<uint8_t> subtree = BarrierSubtreeLocked(self_);
  for (NodeId n = 0; n < nprocs(); ++n) {
    if (!subtree[n] || a.have[n]) continue;
    if (skip_dead && dead_pending_[n]) continue;
    return;
  }
  BarrierEnterMsg up;
  up.barrier = barrier;
  up.node = self_;
  up.round = round;
  up.clock = clock_.Tick();
  up.chunks = a.chunks;  // copied: kept for re-evaluation after a re-parent
  a.forwarded = true;
  counters_.barrier_enter_forwards.fetch_add(1, std::memory_order_relaxed);
  SendFrame(BarrierParentLocked(self_), EncodeW(up, TakeWireBuffer()));
}

void Runtime::ApplyReleaseLocked(BarrierId barrier, BarrierRecord& b, BarrierReleaseMsg& msg) {
  obs::Span apply_span(spans_, obs::SpanKind::kBarrierApply, barrier);
  if (msg.failed_node != kNoNode) {
    // Fail-fast verdict: wake waiters with the failure instead of completing the round, and
    // pass the verdict on to the subtree.
    apply_span.Cancel();
    b.failed_node = msg.failed_node;
    b.poisoned = true;
    b.poison_node = msg.failed_node;
    trace_.Record(clock_.Now(), TraceEvent::kBarrierRelease, barrier, msg.failed_node, 0);
    if (!msg.catch_up) RelayReleaseLocked(b, msg);
    cv_.notify_all();
    return;
  }
  // A release still missing this node's own chunk is applied (own writes are skipped
  // anyway) but never cached or relayed: no peer may receive a partial merge from here.
  const bool whole = msg.omitted_chunk == kNoNode;
  if (msg.round + 1 <= b.completed_round) {
    // Duplicate (a post-commit re-send raced the original): the subtree may still be
    // missing it, so relay before dropping. Terminates — children have strictly larger ids.
    apply_span.Cancel();
    if (!msg.catch_up && whole) RelayReleaseLocked(b, msg);
    return;
  }
  uint64_t bytes = 0;
  for (const BarrierChunk& c : msg.chunks) {
    if (c.node == self_) continue;  // own writes are already in local memory
    strategy_->Apply(c.updates);
    if (ec_) {
      // Barrier crossings refresh the lines they ship: clear the stale-read watermarks
      // (reading neighbour data between rounds is the normal idiom, never reported).
      ec_->OnBarrierApplied(c.updates);
    }
    bytes += UpdateBytes(c.updates);
  }
  trace_.Record(clock_.Now(), TraceEvent::kBarrierRelease, barrier, BarrierRootLocked(),
                msg.round);
  apply_span.End(bytes);
  if (ckpt_ != nullptr) {
    UpdateSet applied;
    for (const BarrierChunk& c : msg.chunks) {
      if (c.node == self_) continue;
      applied.insert(applied.end(), c.updates.begin(), c.updates.end());
    }
    CheckpointLocked(CheckpointLog::Kind::kBarrierApply, barrier, msg.round, msg.release_ts,
                     applied);
  }
  b.completed_round = msg.round + 1;
  b.last_release_ts = std::max(b.last_release_ts, msg.release_ts);
  if (!msg.catch_up) b.has_last_release = whole;
  if (!msg.catch_up && whole) {
    b.last_release = msg;
    // Chunks decoded from the wire own their payload bytes (DecodeUpdateSet arena-copies),
    // but a chunk Collected *here* — the root's own contribution, or the own chunk a leaf
    // spliced back from its assembly — may be a zero-copy view into region memory, which
    // moves on as soon as the app thread crosses the barrier. A later catch-up re-send
    // would then serialize whatever the region holds *now*, leaking a future round's
    // values under this round's stamps. Copy borrowed views into owned storage while the
    // region still holds this round's data.
    PayloadArena arena;
    for (BarrierChunk& c : b.last_release.chunks) {
      for (UpdateEntry& e : c.updates) {
        if (e.owner == nullptr && !e.data.empty()) e.BindCopy(e.data, &arena);
      }
    }
  }
  // Relay before erasing: the round's assembly says which leaf children hold their chunk.
  if (!msg.catch_up && whole) RelayReleaseLocked(b, msg);
  b.assembling.erase(b.assembling.begin(), b.assembling.upper_bound(msg.round));
  cv_.notify_all();
}

void Runtime::RelayReleaseLocked(const BarrierRecord& b, BarrierReleaseMsg& msg) {
  // Catch-up and fail-fast releases are never trimmed; the duplicate path finds no
  // assembly (its round was erased on first apply) and so relays whole frames too.
  const auto it = msg.catch_up || msg.failed_node != kNoNode ? b.assembling.end()
                                                               : b.assembling.find(msg.round);
  const BarrierRecord::RoundAssembly* a = it == b.assembling.end() ? nullptr : &it->second;
  for (NodeId child : BarrierChildrenLocked()) {
    counters_.barrier_release_relays.fetch_add(1, std::memory_order_relaxed);
    // An internal child needs every chunk for its subtree; a leaf already holds its own.
    const bool omit = a != nullptr && a->direct[child] && BarrierLeafLocked(child);
    msg.omitted_chunk = omit ? child : kNoNode;
    SendFrame(child, EncodeW(msg, TakeWireBuffer()));
  }
  msg.omitted_chunk = kNoNode;
}

void Runtime::SpliceOwnChunkLocked(BarrierRecord& b, BarrierReleaseMsg& msg) {
  const auto it = b.assembling.find(msg.round);
  if (it == b.assembling.end()) return;  // e.g. a restarted incarnation that never entered
  std::vector<BarrierChunk>& held = it->second.chunks;
  const auto own = std::find_if(held.begin(), held.end(),
                                [&](const BarrierChunk& c) { return c.node == self_; });
  if (own == held.end()) return;
  // Moved, not copied: ApplyReleaseLocked erases this round's assembly once it applies.
  const auto pos = std::lower_bound(
      msg.chunks.begin(), msg.chunks.end(), self_,
      [](const BarrierChunk& c, NodeId n) { return c.node < n; });
  msg.chunks.insert(pos, std::move(*own));
  held.erase(own);
  msg.omitted_chunk = kNoNode;
}

void Runtime::SendCatchUpReleaseLocked(BarrierId barrier, BarrierRecord& b, uint32_t round,
                                       NodeId to, bool direct) {
  if (b.has_last_release && b.last_release.round == round) {
    counters_.barrier_catchup_releases.fetch_add(1, std::memory_order_relaxed);
    // The missed round is the newest one released here: re-send the cached merged release
    // verbatim (catch_up suppresses the tree relay). The receiver gets the exact payload
    // its peers applied — same data, same per-origin stamps — and a spurious catch-up
    // (triggered by a re-sent enter whose origins are not behind at all) degenerates into
    // a duplicate the receiver already drops.
    BarrierReleaseMsg rel = b.last_release;
    rel.catch_up = true;
    SendFrame(to, EncodeW(rel, TakeWireBuffer()));
    return;
  }
  // No exact cached release for `round`. Only a node that is *itself* re-entering — the
  // direct sender of the enter — genuinely needs a synthesized answer; origins merely named
  // in a relayed or re-sent combined enter are already served by the normal release in
  // flight (or by the exact cache above), and synthesizing one for them would hand a
  // non-lagging bystander this node's current state for a round it has not finished.
  if (!direct) return;
  counters_.barrier_catchup_releases.fetch_add(1, std::memory_order_relaxed);
  // Two or more rounds behind (survivors ran ahead under kProceedWithoutDead, or the cache
  // died with a restarted answerer): the merged release for `round` is gone everywhere, but
  // sync-point consistency only needs the re-entering node's copy of the bound data to be
  // as fresh as the round it resumed at — and this node's copy already folds every round
  // through completed_round. Ship the full current contribution, stamped with the last
  // *release* timestamp, never the current clock: a future stamp would out-rank upcoming
  // rounds' enter timestamps and make the receiver silently skip their chunks (stale-slice
  // poisoning). The receiver applies it like a normal release and advances exactly one
  // round per re-enter.
  BarrierReleaseMsg rel;
  rel.barrier = barrier;
  rel.release_ts = b.last_release_ts;
  rel.round = round;
  rel.catch_up = true;
  BarrierChunk mine;
  mine.node = self_;
  mine.enter_ts = b.last_release_ts;
  strategy_->CollectFull(b.binding, b.last_release_ts, &mine.updates);
  rel.chunks.push_back(std::move(mine));
  SendFrame(to, EncodeW(rel, TakeWireBuffer()));
}

void Runtime::HandleBarrierRelease(BarrierReleaseMsg& msg) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_.Observe(msg.release_ts);
  BarrierRecord& b = barriers_[msg.barrier];
  if (msg.omitted_chunk == self_) SpliceOwnChunkLocked(b, msg);
  ApplyReleaseLocked(msg.barrier, b, msg);
}

void Runtime::EcCheckWrite(RegionId region, uint32_t offset, uint32_t length,
                           const EcSite& site) {
  if (!ec_) return;
  const uint64_t fresh = ec_->OnWrite(region, offset, length, clock_.Now(), site);
  if (fresh > 0) {
    // Application thread, no runtime lock held: take mu_ just for the trace record.
    std::lock_guard<std::mutex> lk(mu_);
    EcTraceLocked(fresh, 0);
  }
}

void Runtime::EcTraceLocked(uint64_t fresh, uint32_t object) {
  if (fresh == 0) return;
  trace_.Record(clock_.Now(), TraceEvent::kEcViolation, object, self_, fresh);
}

void Runtime::ApplyLoggedUpdates(const std::vector<LoggedUpdate>& updates) {
  for (const LoggedUpdate& logged : updates) {
    strategy_->Apply(logged.updates);
  }
}

void Runtime::DetectBarrierRaces(const std::vector<BarrierChunk>& chunks) {
  // Two processors shipping overlapping ranges in the same round means both wrote the same
  // data in one synchronization interval — an entry-consistency race.
  struct Interval {
    RegionId region;
    uint32_t begin;
    uint32_t end;
    NodeId node;
  };
  std::vector<Interval> intervals;
  for (const BarrierChunk& c : chunks) {
    for (const UpdateEntry& e : c.updates) {
      // Timestamped (RT) entries may relay data the sender merely *applied* earlier (its
      // first crossing of a barrier ships everything newer than time 0); only lines stamped
      // at this very crossing are local writes of this interval. Diff-based entries
      // (ts == 0) are always genuine local modifications.
      if (e.ts != 0 && e.ts != c.enter_ts) continue;
      intervals.push_back(
          Interval{e.addr.region, e.addr.offset, e.addr.offset + e.length, c.node});
    }
  }
  std::sort(intervals.begin(), intervals.end(), [](const Interval& a, const Interval& b) {
    if (a.region != b.region) return a.region < b.region;
    return a.begin < b.begin;
  });
  uint64_t races = 0;
  for (size_t i = 1; i < intervals.size(); ++i) {
    const Interval& prev = intervals[i - 1];
    const Interval& cur = intervals[i];
    if (prev.region == cur.region && cur.begin < prev.end && prev.node != cur.node) {
      ++races;
      if (races <= 3) {
        MIDWAY_LOG(Warn) << "barrier race: nodes " << prev.node << " and " << cur.node
                         << " both wrote region " << cur.region << " near offset "
                         << cur.begin;
      }
    }
  }
  counters_.race_warnings.fetch_add(races, std::memory_order_relaxed);
}

void Runtime::SendTo(NodeId dst, std::vector<std::byte> frame) {
  if (rel_ != nullptr) {
    // Self-sends take the reliable path too: the loopback mailbox cannot lose them, but a
    // uniform wire format keeps CommLoop's unwrap unconditional.
    rel_->Send(dst, std::move(frame));
    return;
  }
  transport_->Send(self_, dst, std::move(frame));
}

void Runtime::SendFrame(NodeId dst, WireWriter&& w) {
  // Caller holds mu_ (SendFrame contract), so the dtor-recorded span is guarded.
  obs::Span send_span(spans_, obs::SpanKind::kWireSend, dst);
  if (send_span.active()) send_span.set_detail(w.Size());
  if (rel_ != nullptr) {
    // The reliable channel keeps frames for retransmission, so it needs owned contiguous
    // bytes; gather once here.
    SendTo(dst, w.Take());
    return;
  }
  if (w.HasExternalSegments()) {
    // Fast path: header/metadata runs interleaved with borrowed payload spans go straight
    // to the transport (writev on socket transports) with no flat gather. The buffer comes
    // back for the next frame.
    auto segments = w.Segments();
    transport_->SendV(self_, dst, segments);
    wire_pool_ = w.ReclaimBuffer();
    return;
  }
  transport_->Send(self_, dst, w.Take());
}

std::vector<TraceRecord> Runtime::TraceSnapshot() {
  std::lock_guard<std::mutex> lk(mu_);
  return trace_.Snapshot();
}

void Runtime::OnSpan(obs::SpanKind kind, uint64_t start_ns, uint64_t dur_ns, uint64_t object,
                     uint64_t detail) {
  // Called from a Span destructor / End() at a site that holds mu_ (see the header).
  trace_.RecordSpan(clock_.Now(), kind, static_cast<uint32_t>(object), self_, detail,
                    start_ns, dur_ns);
}

std::vector<LockStat> Runtime::LockStats() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<LockStat> out;
  out.reserve(locks_.size());
  for (const LockRecord& rec : locks_) {
    out.push_back(rec.stats);
  }
  return out;
}

void Runtime::MaybeCrash() {
  const uint32_t point = CrashPointArmed();
  if (point != 0) ExecuteCrash(point);
}

uint32_t Runtime::CrashPointArmed() {
  if (crash_plan_ == nullptr || crashed_) return 0;
  const uint32_t point = sync_points_.fetch_add(1, std::memory_order_relaxed) + 1;
  return point == crash_plan_->at_sync_point ? point : 0;
}

void Runtime::ExecuteCrash(uint32_t point) {
  crashed_ = true;
  // Die abruptly: heartbeats stop, the mailbox closes (in-flight and future traffic to and
  // from this node is dropped), and the application thread unwinds via NodeCrashed. The
  // communication thread exits on the closed mailbox; System decides whether to restart.
  if (detector_ != nullptr) detector_->Stop();
  transport_->CrashNode(self_);
  throw NodeCrashed{self_, point, crash_plan_->restart};
}

void Runtime::CheckpointLocked(CheckpointLog::Kind kind, uint32_t object,
                               uint32_t round_or_inc, uint64_t lamport,
                               const UpdateSet& updates) {
  if (ckpt_ == nullptr) return;
  CheckpointLog::Record record;
  record.kind = kind;
  record.node = self_;
  record.object = object;
  record.round_or_inc = round_or_inc;
  record.lamport = lamport;
  record.updates = updates;
  obs::Span append_span(spans_, obs::SpanKind::kCheckpointAppend, object);
  const size_t bytes = ckpt_->Append(record);
  counters_.checkpoint_records.fetch_add(1, std::memory_order_relaxed);
  counters_.checkpoint_bytes.fetch_add(bytes, std::memory_order_relaxed);
  append_span.End(bytes);
}

std::optional<BarrierReleaseMsg> Runtime::DebugLastRelease(BarrierId barrier) {
  std::lock_guard<std::mutex> lk(mu_);
  const BarrierRecord& b = barriers_[barrier];
  if (!b.has_last_release) return std::nullopt;
  return b.last_release;
}

Runtime::BarrierDebugInfo Runtime::DebugBarrier(BarrierId barrier) {
  std::lock_guard<std::mutex> lk(mu_);
  BarrierDebugInfo info;
  info.round = barriers_[barrier].round;
  info.completed_round = barriers_[barrier].completed_round;
  return info;
}

uint32_t Runtime::DebugEpoch() {
  std::lock_guard<std::mutex> lk(mu_);
  return lock_epoch_;
}

Runtime::SelfState Runtime::DebugSelfState() {
  std::lock_guard<std::mutex> lk(mu_);
  return self_state_;
}

std::vector<uint8_t> Runtime::DebugMembership() {
  std::lock_guard<std::mutex> lk(mu_);
  return node_dead_;
}

void Runtime::DebugMuteHeartbeats(bool muted) {
  if (detector_ != nullptr) detector_->Mute(muted);
}

Runtime::LockDebugInfo Runtime::DebugLock(LockId lock) {
  std::lock_guard<std::mutex> lk(mu_);
  const LockRecord& rec = locks_[lock];
  LockDebugInfo info;
  info.resident = rec.resident;
  info.held = rec.state == LockState::kHeld;
  info.held_mode = rec.held_mode;
  info.pending = static_cast<uint32_t>(rec.pending.size());
  info.outstanding_shared = rec.outstanding_shared;
  info.incarnation = rec.incarnation;
  info.last_seen_ts = rec.last_seen_ts;
  info.binding_version = rec.binding.version;
  return info;
}

}  // namespace midway
