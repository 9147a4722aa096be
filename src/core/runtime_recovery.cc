// Node-crash survival: failure-detector glue, the recovery epoch protocol, and the
// checkpoint-replay restart path (see docs/INTERNALS.md, "Failure model & recovery").
//
// Recovery coordination is sharded: the coordinator for a membership change about node D is
// the first live ring successor of CoordinatorOf(D) (src/core/shard.h), so no fixed node is
// a single point of failure — a coordinator that dies mid-epoch is taken over by the next
// designated survivor (the epoch number was never committed, so reusing it is safe). One
// recovery epoch handles one membership change:
//
//   detector Dead verdict / JoinReq broadcast
//     -> the designated coordinator broadcasts RecoveryBegin (every live node freezes lock
//        ops and reports its per-lock state to msg.coordinator)
//     -> the coordinator elects a sync-point-consistent owner per lock and broadcasts
//        RecoveryCommit
//     -> every node reconstructs its lock records, bumps the lock epoch, re-issues in-flight
//        acquires, and replays lock messages it had deferred from the new epoch.
//
// Two coordinators can transiently race the same epoch number (independent local verdicts
// about different deaths): the lower node id wins, the loser concedes its uncommitted
// attempt and retries after the winner's commit. Lock messages are epoch-stamped:
// stale-epoch messages are dropped (a grant from a dead node's tenure must not resurrect
// it), future-epoch messages are deferred until the local commit catches up. Barrier and
// liveness traffic is never epoch-guarded.
#include <algorithm>
#include <chrono>
#include <tuple>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/core/runtime.h"

namespace midway {

void Runtime::StartDetector() {
  if (detector_ != nullptr) detector_->Start();
}

void Runtime::OnPeerVerdict(NodeId peer, NodeHealth health, uint16_t incarnation) {
  switch (health) {
    case NodeHealth::kSuspect: {
      counters_.peers_suspected.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu_);
      trace_.Record(clock_.Now(), TraceEvent::kPeerSuspect, 0, peer,
                    detector_ != nullptr ? detector_->SilenceUs(peer) : 0);
      break;
    }
    case NodeHealth::kDead: {
      counters_.peers_declared_dead.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(mu_);
      trace_.Record(clock_.Now(), TraceEvent::kPeerDead, 0, peer,
                    detector_ != nullptr ? detector_->SilenceUs(peer) : 0);
      if (incarnation < node_inc_[peer]) {
        // Stale verdict: the silence it measured belongs to the peer's previous
        // incarnation — a rejoin already committed (node_inc_ advanced past it). The new
        // incarnation's heartbeats will flip the detector back to Alive; acting on this
        // would excommunicate a live node and purge its queued acquires.
        break;
      }
      // Deliberately do NOT purge the peer's queued acquires here: the verdict is local and
      // uncommitted, and a dropped acquire has no retry path short of an epoch commit — a
      // false suspicion would strand a live requester forever. ServePending parks (without
      // granting past) a suspected requester at the queue head instead, so no grant strands
      // the lock on a corpse in the verdict-to-Begin window; the epoch commit clears the
      // queues, and an Alive flip below re-serves them.
      if (!node_dead_[peer] && !dead_pending_[peer]) {
        dead_pending_[peer] = 1;
        if (recovery_active_) {
          // Our mid-flight election can no longer expect this peer's report: it died after
          // the epoch's member snapshot was taken. Waiting would wedge the epoch (and with
          // it every queued recovery) on a report that can never arrive; the peer's own
          // death gets its own epoch once this one commits.
          std::erase(expected_reports_, peer);
          bool complete = true;
          for (NodeId n : expected_reports_) {
            if (recovery_reports_.find(n) == recovery_reports_.end()) {
              complete = false;
              break;
            }
          }
          if (complete) ElectAndCommitLocked();
        }
        SweepBarriersForDeadLocked(peer);
        MaybeCoordinateLocked();
      }
      break;
    }
    case NodeHealth::kAlive: {
      std::lock_guard<std::mutex> lk(mu_);
      trace_.Record(clock_.Now(), TraceEvent::kPeerAlive, 0, peer, incarnation);
      // A false suspicion clearing locally (heartbeats resumed before any commit): the peer
      // counts again for coordinator election and barrier rounds.
      dead_pending_[peer] = 0;
      // ServePending parks a suspected requester at the queue head; a withdrawn suspicion
      // must re-serve those queues or they stall until unrelated lock traffic arrives.
      for (uint32_t l = 0; l < locks_.size(); ++l) {
        ServePending(static_cast<LockId>(l), locks_[l]);
      }
      break;
    }
  }
}

void Runtime::HandleHeartbeat(const HeartbeatMsg& msg) {
  if (detector_ == nullptr) return;
  // Do not hold mu_ here: the detector may fire an Alive verdict, which takes mu_ itself.
  detector_->OnHeartbeat(msg.node, msg.incarnation);
  if (!detector_->Muted()) {
    HeartbeatAckMsg ack;
    ack.node = self_;
    ack.incarnation = incarnation_;
    ack.echo_ts_us = msg.send_ts_us;
    transport_->Send(self_, msg.node, Encode(ack));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    // A heartbeat from a committed-dead node still beating with its buried incarnation is a
    // wrongly-buried peer that may have missed its raw death notification (Begin and Commit
    // both travel raw and can be lost). Re-serve the last commit so it can protest: its
    // membership snapshot names the sender dead even when a later epoch is about someone
    // else. Idempotent — the zombie drops epochs it has already applied, and once it
    // protests its heartbeats carry the bumped incarnation, ending the re-serves.
    if (node_dead_[msg.node] && msg.incarnation <= node_inc_[msg.node]) {
      transport_->Send(self_, msg.node, Encode(last_commit_));
    }
  }
  // Heartbeat arrivals double as the protest retry clock: they keep coming while the app
  // thread is parked between sync points, so a lost protest burst is always retried.
  MaybeProtestFromCommThread();
}

void Runtime::HandleHeartbeatAck(const HeartbeatAckMsg& msg) {
  if (detector_ == nullptr) return;
  counters_.hb_acks.fetch_add(1, std::memory_order_relaxed);
  detector_->OnAck(msg.node, msg.incarnation, msg.echo_ts_us);
}

void Runtime::HandleJoinReq(const JoinReqMsg& msg) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_.Observe(msg.clock);
  if (node_inc_[msg.node] >= msg.new_incarnation) {
    if (!node_dead_[msg.node]) {
      // The rejoin already committed; the raw commit frame to the joiner must have been
      // lost. Any node can re-serve it — every node keeps the last commit. This also makes
      // duplicate broadcast deliveries after the commit idempotent: the joiner drops
      // already-applied epochs.
      transport_->Send(self_, msg.node, Encode(last_commit_));
    }
    // else: a stale duplicate — the announced incarnation was already superseded (the node
    // died again, or a newer life committed). Starting an epoch for it would readmit a
    // stale incarnation under a colliding epoch number; ignore it. A live joiner retries
    // with its current incarnation every 20ms, so nothing is lost.
    return;
  }
  // JoinReq is broadcast (the joiner cannot compute its coordinator); only the designated
  // coordinator starts the rejoin epoch.
  if (RecoveryCoordinatorLocked(msg.node) != self_) return;
  if (recovery_active_ && current_recovery_.dead == msg.node) {
    if (current_recovery_.new_incarnation >= msg.new_incarnation) {
      return;  // this very rejoin is in flight; the joiner's retry raced it
    }
    // The joiner moved on while our attempt was in flight (it was buried again and bumped
    // its incarnation once more). It will never answer a Begin naming the old incarnation
    // — to the joiner that Begin is indistinguishable from yet another burial — so the
    // attempt can never gather its report. It never committed, so drop it and restart the
    // same epoch number for the incarnation the joiner actually runs.
    recovery_active_ = false;
  }
  std::erase_if(recovery_queue_, [&](const auto& q) {
    return q.first == msg.node && q.second < msg.new_incarnation;  // stale queued attempts
  });
  for (const auto& [node, inc] : recovery_queue_) {
    if (node == msg.node && inc == msg.new_incarnation) return;  // already queued
  }
  StartRecoveryLocked(msg.node, msg.new_incarnation);
}

NodeId Runtime::RecoveryCoordinatorLocked(NodeId node) const {
  NodeId c = CoordinatorOf(node, nprocs());
  for (NodeId step = 0; step < nprocs(); ++step) {
    if (c != node && !node_dead_[c] && !dead_pending_[c]) return c;
    c = static_cast<NodeId>((c + 1) % nprocs());
  }
  return node;  // no live successor exists; nobody can (or needs to) coordinate
}

void Runtime::MaybeCoordinateLocked() {
  if (recovery_active_) return;  // our own epoch is mid-flight; the commit re-invokes us
  for (NodeId dead = 0; dead < nprocs(); ++dead) {
    if (!dead_pending_[dead] || node_dead_[dead]) continue;
    if (RecoveryCoordinatorLocked(dead) != self_) continue;
    if (recovering_ && inflight_coord_ != kNoNode && inflight_coord_ != self_ &&
        !node_dead_[inflight_coord_] && !dead_pending_[inflight_coord_]) {
      // A live coordinator already has an epoch in flight; starting ours would collide on
      // the epoch number. It commits or it dies — either way we are called again.
      continue;
    }
    // Either no epoch is in flight here, or the in-flight coordinator itself died: take
    // over. Reusing epoch lock_epoch_ + 1 is safe — the dead coordinator never committed
    // it, so no node has advanced past lock_epoch_.
    StartRecoveryLocked(dead, /*new_inc=*/0);
    return;
  }
}

void Runtime::StartRecoveryLocked(NodeId dead, uint16_t new_inc) {
  if (recovery_active_) {
    recovery_queue_.emplace_back(dead, new_inc);
    return;
  }
  recovery_active_ = true;
  recovering_ = true;

  RecoveryBeginMsg begin;
  begin.epoch = lock_epoch_ + 1;
  begin.dead = dead;
  begin.dead_incarnation = node_inc_[dead];
  begin.new_incarnation = new_inc;
  begin.coordinator = self_;
  begin.clock = clock_.Tick();
  current_recovery_ = begin;
  inflight_coord_ = self_;
  recovery_reports_.clear();
  expected_reports_.clear();
  for (NodeId n = 0; n < nprocs(); ++n) {
    if (n == dead) {
      // A rejoiner reports like any live node — its replayed checkpoint watermarks join the
      // election. A corpse does not.
      if (new_inc > 0) expected_reports_.push_back(n);
      continue;
    }
    if (!node_dead_[n] && !dead_pending_[n]) expected_reports_.push_back(n);
  }
  // The dead node's previous incarnation owned the sequence space of every channel pair it
  // was part of; restart ours from scratch before sending anything new its way.
  if (rel_ != nullptr) rel_->ResetPeer(dead, new_inc);
  for (NodeId n : expected_reports_) {
    SendTo(n, Encode(begin));  // reliable, the coordinator included via loopback
  }
  if (new_inc == 0) {
    // Raw copy to the declared-dead node: if it is actually alive (a false suspicion), this
    // tells it its leases are gone; if it is truly dead, the transport drops the frame.
    transport_->Send(self_, dead, Encode(begin));
  }
}

void Runtime::MaybeStartQueuedRecoveryLocked() {
  while (!recovery_active_ && !recovery_queue_.empty()) {
    const auto [node, inc] = recovery_queue_.front();
    recovery_queue_.pop_front();
    // Entries can go stale while queued: a rejoin another coordinator already committed
    // (or that the joiner superseded with a higher incarnation), or a death verdict that
    // resolved meanwhile. Starting an epoch for one would readmit a stale incarnation or
    // re-bury a proven-alive node.
    if (inc > 0 && node_inc_[node] >= inc) continue;
    if (inc == 0 && (node_dead_[node] != 0 || !dead_pending_[node])) continue;
    StartRecoveryLocked(node, inc);
    return;
  }
}

void Runtime::HandleRecoveryBegin(const RecoveryBeginMsg& msg) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_.Observe(msg.clock);
  if (msg.epoch <= lock_epoch_) return;  // stale: this epoch already committed here
  if (recovery_active_ && msg.epoch == current_recovery_.epoch && msg.coordinator != self_) {
    // Two coordinators raced the same uncommitted epoch number (independent local verdicts).
    // Deterministic tie-break: the lower node id wins.
    if (self_ < msg.coordinator) return;
    // Concede our attempt — it was never committed, so dropping it loses nothing. Whatever
    // death or rejoin we were recovering is still pending (dead_pending_ / the joiner's
    // retry loop) and restarts after the winner's commit.
    recovery_active_ = false;
  }
  recovering_ = true;
  inflight_coord_ = msg.coordinator;
  // A Begin naming ourselves is either our own rejoin (new_incarnation matches the one we
  // booted with — report like any live node, our replayed watermarks join the election) or
  // a false suspicion (a death epoch, new_incarnation 0, delivered raw while we are alive).
  const bool about_self = msg.dead == self_;
  const bool own_rejoin =
      about_self && msg.new_incarnation != 0 && msg.new_incarnation == incarnation_;
  if (about_self && !own_rejoin) {
    // We were declared dead but are alive (false suspicion). Every survivor has reset its
    // channel endpoint for us; mirror the reset so sequence spaces agree again. Our report
    // is not expected — the commit will tell us which leases we lost, and applying it
    // starts the protest (BeginProtestLocked).
    if (rel_ != nullptr) {
      for (NodeId n = 0; n < nprocs(); ++n) {
        if (n != self_) rel_->ResetPeer(n, node_inc_[n]);
      }
    }
    if (self_state_ == SelfState::kMember) {
      self_state_ = SelfState::kBuried;
      trace_.Record(clock_.Now(), TraceEvent::kBuried, msg.epoch, msg.coordinator, 0);
      if (!resurrection_span_.has_value()) {
        resurrection_span_.emplace(spans_, obs::SpanKind::kResurrection, msg.epoch);
      }
    }
    return;
  }
  if (own_rejoin && self_state_ == SelfState::kProtesting) {
    // Our protest reached the coordinator: the rejoin epoch about our bumped incarnation is
    // under way. Report below like any live node — entry consistency makes the transfer
    // cheap: only our post-burial lock watermarks travel, no region copy.
    self_state_ = SelfState::kRejoining;
  }
  if (!about_self) {
    // The coordinator already reset its endpoint in StartRecoveryLocked — and has live
    // reliable frames (this Begin!) outstanding that a second reset would wipe.
    if (rel_ != nullptr && self_ != msg.coordinator) {
      rel_->ResetPeer(msg.dead, msg.new_incarnation);
    }
    // Queued requests from the dead node's previous life can never be granted (the grant
    // would be epoch-stale by the time it existed); purge them.
    for (LockRecord& rec : locks_) {
      std::erase_if(rec.pending,
                    [&](const AcquireMsg& m) { return m.requester == msg.dead; });
    }
  }
  obs::Span report_span(spans_, obs::SpanKind::kRecoveryReport, msg.epoch);
  RecoveryReportMsg rep;
  rep.epoch = msg.epoch;
  rep.node = self_;
  rep.clock = clock_.Tick();
  rep.locks.reserve(locks_.size());
  for (uint32_t i = 0; i < locks_.size(); ++i) {
    const LockRecord& rec = locks_[i];
    LockStateReport r;
    r.lock = i;
    if (rec.resident) r.flags |= LockStateReport::kResident;
    if (rec.state == LockState::kHeld && rec.held_mode == LockMode::kExclusive) {
      r.flags |= LockStateReport::kHeldExclusive;
    }
    if (rec.state == LockState::kHeld && rec.held_mode == LockMode::kShared) {
      r.flags |= LockStateReport::kHeldShared;
    }
    if (rec.waiting) r.flags |= LockStateReport::kWaiting;
    r.incarnation = rec.incarnation;
    r.last_seen_inc = rec.last_seen_inc;
    r.last_seen_ts = rec.last_seen_ts;
    r.binding_version = rec.binding.version;
    r.rollback_inc = rec.burial_inc;  // nonzero only on a wrongly-buried node's rejoin
    rep.locks.push_back(r);
  }
  SendTo(msg.coordinator, Encode(rep));
}

void Runtime::HandleRecoveryReport(const RecoveryReportMsg& msg) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_.Observe(msg.clock);
  if (!recovery_active_ || msg.epoch != current_recovery_.epoch) return;
  if (std::find(expected_reports_.begin(), expected_reports_.end(), msg.node) ==
      expected_reports_.end()) {
    return;  // e.g. a zombie answering its own death epoch must not join the election
  }
  recovery_reports_[msg.node] = msg;
  for (NodeId n : expected_reports_) {
    if (recovery_reports_.find(n) == recovery_reports_.end()) return;
  }
  ElectAndCommitLocked();
}

void Runtime::ElectAndCommitLocked() {
  obs::Span elect_span(spans_, obs::SpanKind::kRecoveryElect, current_recovery_.epoch);
  RecoveryCommitMsg commit;
  commit.epoch = current_recovery_.epoch;
  commit.dead = current_recovery_.dead;
  commit.new_incarnation = current_recovery_.new_incarnation;
  commit.coordinator = self_;
  commit.clock = clock_.Tick();
  // Membership snapshot: the coordinator's committed view with this epoch's subject folded
  // in. A rejoiner (restarted or resurrected) missed every epoch committed while it was
  // out; the snapshot restores its whole node_dead_/node_inc_ view, not just its own entry.
  commit.member_dead.assign(node_dead_.begin(), node_dead_.end());
  commit.member_inc.assign(node_inc_.begin(), node_inc_.end());
  commit.member_dead[commit.dead] = commit.new_incarnation > 0 ? 0 : 1;
  if (commit.new_incarnation > 0) commit.member_inc[commit.dead] = commit.new_incarnation;
  commit.locks.reserve(locks_.size());
  for (uint32_t l = 0; l < locks_.size(); ++l) {
    LockVerdict v;
    v.lock = l;
    bool have_resident = false;
    bool have_best = false;
    std::tuple<uint32_t, uint64_t, uint32_t, NodeId> best{};
    uint32_t max_inc = 0;
    uint16_t shared_holders = 0;
    for (const auto& [node, rep] : recovery_reports_) {
      const LockStateReport& r = rep.locks[l];  // SPMD setup: same lock ids everywhere
      max_inc = std::max({max_inc, r.incarnation, r.last_seen_inc});
      if (r.flags & LockStateReport::kHeldShared) ++shared_holders;
      if (r.flags & LockStateReport::kResident) {
        v.owner = node;
        have_resident = true;
      }
      const std::tuple<uint32_t, uint64_t, uint32_t, NodeId> cand{
          r.last_seen_inc, r.last_seen_ts, r.binding_version, node};
      if (!have_best || cand > best) {
        best = cand;
        if (!have_resident) v.owner = node;
        have_best = true;
      }
    }
    if (!have_resident && have_best) {
      // Freshest survivor wins: its copy reflects the last *released* (sync-point
      // consistent) version of the bound data. The dead owner's unshipped critical section
      // is rolled back — that is the lease revocation.
      v.owner = std::get<3>(best);
      counters_.lock_lease_revocations.fetch_add(1, std::memory_order_relaxed);
      trace_.Record(clock_.Now(), TraceEvent::kLeaseRevoked, l, commit.dead, v.owner);
    }
    // Wrongly-buried data rescue: a protest rejoin carries rollback_inc — the version the
    // burying epoch relabeled the rolled-back survivor copy with. If the resident still
    // sits at exactly that incarnation with nothing held anywhere, no critical section ran
    // since the rollback, so the zombie's in-memory copy (sync-point consistent at burial)
    // is the true head of the lock chain: hand ownership back and its full first grant
    // makes that copy canonical. If the chain moved on (a grant bumped the resident past
    // rollback_inc, or someone holds), the survivors' history won and the zombie's last
    // section stays rolled back — ordinary lease-revocation semantics.
    if (have_resident && current_recovery_.new_incarnation > 0) {
      auto zit = recovery_reports_.find(current_recovery_.dead);
      auto rit = recovery_reports_.find(v.owner);
      if (zit != recovery_reports_.end() && rit != recovery_reports_.end()) {
        const LockStateReport& zr = zit->second.locks[l];
        const LockStateReport& rr = rit->second.locks[l];
        if (zr.rollback_inc != 0 && rr.incarnation == zr.rollback_inc &&
            shared_holders == 0 &&
            !(rr.flags &
              (LockStateReport::kHeldExclusive | LockStateReport::kHeldShared))) {
          const NodeId displaced = v.owner;
          v.owner = current_recovery_.dead;
          trace_.Record(clock_.Now(), TraceEvent::kLeaseRevoked, l, displaced, v.owner);
        }
      }
    }
    // Strictly above anything any survivor has observed: incarnation monotonicity holds
    // across the failover by construction.
    v.incarnation = max_inc + 1;
    v.outstanding_shared = shared_holders;
    commit.locks.push_back(v);
  }
  last_commit_ = commit;
  for (NodeId n : expected_reports_) {
    SendTo(n, Encode(commit));
  }
  if (commit.new_incarnation == 0) {
    transport_->Send(self_, commit.dead, Encode(commit));  // zombie notification (raw)
  }
}

void Runtime::HandleRecoveryCommit(const RecoveryCommitMsg& msg) { ApplyRecoveryCommit(msg); }

void Runtime::ApplyRecoveryCommit(const RecoveryCommitMsg& msg) {
  std::vector<Packet> replay;
  {
    std::lock_guard<std::mutex> lk(mu_);
    clock_.Observe(msg.clock);
    if (msg.epoch <= lock_epoch_) return;  // duplicate (a raw re-send raced the original)
    obs::Span apply_span(spans_, obs::SpanKind::kRecoveryApply, msg.epoch);
    lock_epoch_ = msg.epoch;
    // Adopt the coordinator's membership snapshot wholesale before the per-subject overlay.
    // A rejoiner (restarted or resurrected) missed every epoch that committed while it was
    // out; without the snapshot its node_dead_/node_inc_ view would claim everyone alive at
    // incarnation 0. Incarnations only move forward, so max() protects a protest bump we
    // already applied locally from a commit built before the coordinator heard of it.
    if (msg.member_dead.size() == node_dead_.size() &&
        msg.member_inc.size() == node_inc_.size()) {
      for (NodeId n = 0; n < nprocs(); ++n) {
        node_dead_[n] = msg.member_dead[n];
        node_inc_[n] = std::max(node_inc_[n], msg.member_inc[n]);
      }
    }
    if (msg.new_incarnation > 0) {
      node_dead_[msg.dead] = 0;
      node_inc_[msg.dead] = msg.new_incarnation;
    } else {
      node_dead_[msg.dead] = 1;
    }
    // A chunk held for a round in flight may have come from an incarnation this commit
    // retires, and the tree may have changed shape: relay those rounds' releases whole.
    for (BarrierRecord& b : barriers_) {
      for (auto& [round, assembly] : b.assembling) {
        std::fill(assembly.direct.begin(), assembly.direct.end(), 0);
      }
    }
    // Wrong burial (membership is final as of the lines above): this commit — or its
    // snapshot; a re-served commit for an unrelated epoch also names us — says we are dead,
    // yet we are alive and running.
    const bool own_death = node_dead_[self_] != 0 && !crashed_;
    for (const LockVerdict& v : msg.locks) {
      LockRecord& rec = locks_[v.lock];
      rec.pending.clear();
      rec.home_tail = v.owner;  // meaningful on the home node, harmless elsewhere
      if (v.owner == self_) {
        if (!rec.resident) {
          rec.resident = true;
          if (rec.state != LockState::kHeld) rec.state = LockState::kReleased;
          // Our copy is only guaranteed consistent to our last sync point: force the first
          // post-recovery grant to ship the full bound data, so no requester can be left
          // with a gap.
          rec.update_log.clear();
          rec.log_base = v.incarnation > 0 ? v.incarnation - 1 : 0;
          rec.last_seen_inc = rec.log_base;
        }
        rec.incarnation = v.incarnation;
        rec.outstanding_shared = v.outstanding_shared;
        rec.lease_lost = false;
        rec.burial_inc = 0;
      } else {
        const bool was_holding = rec.state == LockState::kHeld;
        const bool was_resident = rec.resident;
        if (was_holding && rec.held_mode == LockMode::kExclusive) {
          // We hold the lock but ownership moved on: we are the falsely-dead node whose
          // lease expired. The hold dies with the epoch; Release will discard it.
          rec.lease_lost = true;
        }
        // Wrongly buried while we were the lock's resident owner: this epoch rolled the
        // data back to a survivor and stamped that stale copy v.incarnation. Our in-memory
        // copy — consistent through our last release, the true chain head — supersedes
        // exactly that version, so remember it; the rejoin report echoes it and the
        // election can return untouched locks to us instead of canonizing stale data. No
        // claim when a survivor was the resident (our copy is the stale one) or when we
        // were mid-critical-section (unreleased writes are legitimately rolled back). A
        // later epoch re-elects every lock; an existing claim survives it only when the
        // verdict's version proves no grant ran in between (exactly one bump per epoch).
        const bool claim =
            was_resident || (rec.burial_inc != 0 && v.incarnation == rec.burial_inc + 1);
        rec.burial_inc =
            own_death && claim && !(was_holding && rec.held_mode == LockMode::kExclusive)
                ? v.incarnation
                : 0;
        rec.resident = false;
        if (!was_holding) rec.state = LockState::kInvalid;
        if (was_holding && rec.held_mode == LockMode::kShared) {
          // A shared hold stays readable; future read-releases go to the new owner (which
          // either counted us in outstanding_shared or tolerates the excess release).
          rec.granter = v.owner;
        }
        rec.outstanding_shared = 0;
      }
    }
    counters_.recovery_epochs.fetch_add(1, std::memory_order_relaxed);
    trace_.Record(clock_.Now(), TraceEvent::kRecovery, msg.epoch, msg.dead,
                  msg.new_incarnation);
    recovering_ = false;
    // A commit unblocks a restart's SendJoinAndAwaitCommit only when it commits *this*
    // incarnation. The raw zombie notification for our previous life's death epoch can land
    // after the restart — acting on it as a rejoin would let the new incarnation run with a
    // membership view in which it is still dead.
    if (msg.dead != self_ || msg.new_incarnation == incarnation_) rejoined_ = true;
    inflight_coord_ = kNoNode;
    // The commit resolves the pending verdict for its subject (a rejoin commit also clears
    // any stale local suspicion — the node is provably alive again). Every node keeps the
    // commit so any peer can re-serve a joiner whose raw commit frame was lost.
    dead_pending_[msg.dead] = 0;
    last_commit_ = msg;
    if (recovery_active_ && msg.epoch >= current_recovery_.epoch) recovery_active_ = false;
    // Bump the incarnation in place and start protesting; the app threads quiesce at their
    // next sync point until the rejoin epoch commits.
    if (own_death && (self_state_ == SelfState::kMember || self_state_ == SelfState::kBuried)) {
      BeginProtestLocked();
    }
    if (msg.dead == self_ && msg.new_incarnation == incarnation_ &&
        self_state_ != SelfState::kMember) {
      // Our protest's rejoin epoch committed: wrongly buried -> member again.
      self_state_ = SelfState::kMember;
      counters_.resurrections.fetch_add(1, std::memory_order_relaxed);
      trace_.Record(clock_.Now(), TraceEvent::kResurrected, msg.epoch, msg.coordinator,
                    incarnation_.load(std::memory_order_relaxed));
      if (resurrection_span_.has_value()) {
        resurrection_span_->set_detail(incarnation_.load(std::memory_order_relaxed));
        resurrection_span_.reset();  // destructor ends the span (we hold mu_)
      }
    }
    // Re-issue acquires that were in flight when the epoch turned: their original request
    // or its grant may have been lost with the dead node or dropped as epoch-stale. A
    // buried node must NOT re-issue — it is not a member and its messages would be dropped
    // as stale anyway; the rejoin commit (own_death false by then) re-sends them.
    if (!own_death) {
      for (uint32_t l = 0; l < locks_.size(); ++l) {
        LockRecord& rec = locks_[l];
        if (rec.waiting && rec.state != LockState::kHeld) {
          rec.waiting_req.epoch = lock_epoch_;
          rec.waiting_req.clock = clock_.Now();
          SendTo(ActingHomeLocked(static_cast<LockId>(l)),
                 Encode(MsgType::kAcquireReq, rec.waiting_req));
        }
      }
      // The commit changed the barrier tree's shape: a death re-homes orphaned subtrees to
      // their grandparent, a rejoin re-attaches the node at its static heap position (it
      // regains its children), and an endpoint reset (the zombie's Rebirth, or the members'
      // ResetPeer) may have orphaned in-flight enters in the reliable channel. Re-evaluate
      // and re-send every assembling round against the new topology; per-origin dedup at
      // every hop makes the over-send safe.
      ResendBarrierStateLocked();
    }
    replay.swap(deferred_);
    cv_.notify_all();
    // This node may have learned of the death only through the commit (its own detector
    // slower than the coordinator's); the sweep is idempotent. A wrongly-buried node takes
    // no membership actions until it is readmitted.
    if (!own_death && msg.new_incarnation == 0) {
      SweepBarriersForDeadLocked(msg.dead);
    }
    MaybeStartQueuedRecoveryLocked();
    MaybeCoordinateLocked();
  }
  // Replay lock messages that arrived from this epoch before we had committed it. Still
  // newer-epoch packets simply defer again.
  for (const Packet& p : replay) {
    HandleMessage(p);
  }
}

void Runtime::SweepBarriersForDeadLocked(NodeId dead) {
  switch (config_.barrier_policy) {
    case BarrierPolicy::kWaitForever:
      return;  // restart (or a false suspicion clearing) is the only way forward
    case BarrierPolicy::kFailFast: {
      // Decentralized: every node poisons on its own verdict, wakes its local waiter, and
      // pushes the verdict down its subtree; HandleBarrierEnter answers slower subtrees'
      // enters with the same verdict, so the failure reaches everyone without a manager.
      for (uint32_t id = 0; id < barriers_.size(); ++id) {
        BarrierRecord& b = barriers_[id];
        if (b.poisoned) continue;
        b.poisoned = true;
        b.poison_node = dead;
        b.failed_node = dead;
        BarrierReleaseMsg rel;
        rel.barrier = id;
        rel.release_ts = clock_.Tick();
        rel.round = b.completed_round;
        rel.failed_node = dead;
        RelayReleaseLocked(b, rel);
      }
      cv_.notify_all();
      return;
    }
    case BarrierPolicy::kProceedWithoutDead: {
      // The dead node no longer counts toward completion; any round it was the last
      // holdout of can forward or release right now. Snapshot the keys first — a release
      // erases assembly entries mid-iteration.
      for (uint32_t id = 0; id < barriers_.size(); ++id) {
        std::vector<uint32_t> rounds;
        for (const auto& [round, assembly] : barriers_[id].assembling) {
          rounds.push_back(round);
        }
        for (uint32_t round : rounds) {
          MaybeForwardOrReleaseLocked(id, barriers_[id], round);
        }
      }
      return;
    }
  }
}

void Runtime::ResendBarrierStateLocked() {
  for (uint32_t id = 0; id < barriers_.size(); ++id) {
    BarrierRecord& b = barriers_[id];
    if (b.poisoned) continue;
    std::vector<uint32_t> rounds;
    for (auto& [round, assembly] : b.assembling) {
      assembly.forwarded = false;  // the old parent may be gone; send again to the new one
      rounds.push_back(round);
    }
    for (uint32_t round : rounds) {
      counters_.barrier_reparent_resends.fetch_add(1, std::memory_order_relaxed);
      MaybeForwardOrReleaseLocked(id, b, round);
    }
  }
}

void Runtime::ReplayCheckpointLocked() {
  if (ckpt_ == nullptr) return;
  obs::Span replay_span(spans_, obs::SpanKind::kCheckpointReplay);
  const CheckpointLog::ReplayResult result = ckpt_->Replay();
  replay_span.set_detail(result.records.size());
  if (result.torn) {
    MIDWAY_LOG(Warn) << "node " << self_ << ": checkpoint log has a torn tail; replaying "
                     << result.records.size() << " intact records";
  }
  uint64_t max_lamport = 0;
  for (const CheckpointLog::Record& rec : result.records) {
    max_lamport = std::max(max_lamport, rec.lamport);
    strategy_->Apply(rec.updates);
    switch (rec.kind) {
      case CheckpointLog::Kind::kLockCollect:
      case CheckpointLog::Kind::kLockApply: {
        if (rec.object < locks_.size()) {
          LockRecord& lr = locks_[rec.object];
          lr.last_seen_ts = std::max(lr.last_seen_ts, rec.lamport);
          lr.last_seen_inc = std::max(lr.last_seen_inc, rec.round_or_inc);
        }
        break;
      }
      case CheckpointLog::Kind::kBarrierApply: {
        if (rec.object < barriers_.size()) {
          BarrierRecord& b = barriers_[rec.object];
          b.completed_round = std::max(b.completed_round, rec.round_or_inc + 1);
          b.round = b.completed_round;
          b.last_cross_ts = std::max(b.last_cross_ts, rec.lamport);
          // The cached merged release dies with the old incarnation, but the fallback
          // catch-up path still needs the release stamp to collect against.
          b.last_release_ts = std::max(b.last_release_ts, rec.lamport);
        }
        break;
      }
      case CheckpointLog::Kind::kBarrierSend:  // the applied updates are the point
      case CheckpointLog::Kind::kClockMark:
        break;
    }
  }
  clock_.Observe(max_lamport);
}

void Runtime::SendJoinAndAwaitCommit() {
  JoinReqMsg join;
  join.node = self_;
  join.old_incarnation = incarnation_ > 0 ? static_cast<uint16_t>(incarnation_ - 1) : 0;
  join.new_incarnation = incarnation_;
  const NodeId n_nodes = static_cast<NodeId>(transport_->NumNodes());
  std::unique_lock<std::mutex> lk(mu_);
  while (!rejoined_) {
    join.clock = clock_.Now();
    const std::vector<std::byte> frame = Encode(join);
    lk.unlock();
    // Raw broadcast: our membership view died with the old incarnation, so we cannot know
    // which survivor is the designated coordinator. Every peer gets the announcement; only
    // the coordinator starts the epoch (any peer may re-serve an already-committed one).
    // Raw because each survivor's channel endpoint for us is reset only once our recovery
    // epoch starts, which this very message triggers.
    for (NodeId n = 0; n < n_nodes; ++n) {
      if (n != self_) transport_->Send(self_, n, frame);
    }
    lk.lock();
    cv_.wait_for(lk, std::chrono::milliseconds(20), [&] { return rejoined_; });
  }
}

namespace {
// Wall clock for protest pacing only (never crosses the wire, never compared across nodes).
uint64_t SteadyMicros() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}
}  // namespace

bool Runtime::SuspectedDeadLocked(NodeId n) const {
  // The verdict only counts against the incarnation it measured: once a rejoin commit
  // advances node_inc_ past it, the silence belonged to a previous life.
  return detector_ != nullptr && detector_->Health(n) == NodeHealth::kDead &&
         detector_->Incarnation(n) >= node_inc_[n];
}

void Runtime::AwaitMembershipLocked(std::unique_lock<std::mutex>& lk) {
  while (recovering_ || self_state_ != SelfState::kMember) {
    if (self_state_ == SelfState::kProtesting &&
        SteadyMicros() - last_protest_us_ >= kProtestIntervalUs) {
      SendProtestLocked();
    }
    cv_.wait_for(lk, std::chrono::milliseconds(20));
  }
}

void Runtime::BeginProtestLocked() {
  const uint16_t new_inc =
      static_cast<uint16_t>(incarnation_.load(std::memory_order_relaxed) + 1);
  counters_.false_death_commits.fetch_add(1, std::memory_order_relaxed);
  incarnation_.store(new_inc, std::memory_order_relaxed);
  node_inc_[self_] = new_inc;
  // The old incarnation's sequence spaces died with the burial. Adopt the new incarnation
  // now so protest heartbeats already carry it (which also stops peers re-serving the death
  // commit); survivors reset their sender endpoint for exactly this incarnation when the
  // rejoin epoch begins (StartRecoveryLocked), and we mirror our receive side here.
  if (rel_ != nullptr) {
    rel_->Rebirth(new_inc);
    for (NodeId n = 0; n < nprocs(); ++n) {
      if (n != self_) rel_->ResetPeer(n, node_inc_[n]);
    }
  }
  self_state_ = SelfState::kProtesting;
  rejoined_ = false;
  if (!resurrection_span_.has_value()) {
    resurrection_span_.emplace(spans_, obs::SpanKind::kResurrection, lock_epoch_);
  }
  SendProtestLocked();
}

void Runtime::SendProtestLocked() {
  // Same shape as a restart's announcement (SendJoinAndAwaitCommit): raw broadcast, because
  // our committed membership view is suspect and the survivors' reliable endpoints for us
  // reset only once the rejoin epoch starts — which this very message triggers.
  JoinReqMsg join;
  join.node = self_;
  const uint16_t inc = incarnation_.load(std::memory_order_relaxed);
  join.old_incarnation = static_cast<uint16_t>(inc - 1);
  join.new_incarnation = inc;
  join.clock = clock_.Now();
  const std::vector<std::byte> frame = Encode(join);
  for (NodeId n = 0; n < nprocs(); ++n) {
    if (n != self_) transport_->Send(self_, n, frame);
  }
  const uint64_t sent = counters_.protests_sent.fetch_add(1, std::memory_order_relaxed) + 1;
  trace_.Record(clock_.Now(), TraceEvent::kProtest, inc, self_, sent);
  last_protest_us_ = SteadyMicros();
}

void Runtime::MaybeProtestFromCommThread() {
  std::lock_guard<std::mutex> lk(mu_);
  if (self_state_ != SelfState::kProtesting) return;
  if (SteadyMicros() - last_protest_us_ < kProtestIntervalUs) return;
  SendProtestLocked();
}

}  // namespace midway
