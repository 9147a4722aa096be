#include "src/core/reliable.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/common/log.h"

namespace midway {

ReliableChannel::ReliableChannel(Transport* transport, NodeId self, const SystemConfig& config,
                                 Counters* counters, uint16_t self_inc)
    : transport_(transport),
      self_(self),
      initial_rto_us_(config.rel_initial_rto_us),
      max_rto_us_(config.rel_max_rto_us),
      counters_(counters),
      self_inc_(self_inc),
      peers_(transport->NumNodes()) {
  MIDWAY_CHECK_GT(initial_rto_us_, 0u);
  MIDWAY_CHECK_GE(max_rto_us_, initial_rto_us_);
  // The self-channel's destination incarnation is our own by definition. Without this, a
  // restarted node (self_inc > 0) stamps its loopback frames with the default peer_inc of 0
  // and then drops them at unwrap as addressed to its previous life.
  peers_[self_].peer_inc = self_inc_;
  retransmitter_ = std::thread([this] { RetransmitLoop(); });
}

ReliableChannel::~ReliableChannel() { Stop(); }

void ReliableChannel::Send(NodeId dst, std::vector<std::byte> frame) {
  std::vector<std::byte> wire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    PeerState& peer = peers_[dst];
    if (peer.unreachable) return;  // given up; recovery will ResetPeer before resuming
    const uint32_t seq = peer.next_seq++;
    wire = EncodeRelData(seq, peer.next_expected - 1, peer.peer_inc, frame);
    peer.unacked.push_back(Pending{seq, std::move(frame)});
    if (peer.rto_us == 0) {
      peer.rto_us = initial_rto_us_;
      peer.rto_deadline = Clock::now() + std::chrono::microseconds(peer.rto_us);
    }
  }
  counters_->rel_data_frames.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_one();  // the retransmitter may be sleeping with no deadline armed
  transport_->Send(self_, dst, std::move(wire));
}

void ReliableChannel::OnPacket(NodeId src, std::span<const std::byte> frame,
                               std::vector<std::vector<std::byte>>* ready) {
  RelHeader header;
  std::span<const std::byte> payload;
  if (!DecodeRelFrame(frame, &header, &payload)) {
    MIDWAY_LOG(Warn) << "node " << self_ << ": malformed reliability frame from " << src;
    return;
  }
  uint64_t dup_dropped = 0;
  bool send_ack = false;
  uint32_t ack_value = 0;
  uint16_t ack_inc = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A frame addressed to a previous incarnation of this node is a stale retransmission
    // from before a crash (or a pre-resurrection life): its sequence numbers belong to that
    // dead life's space. Checked under mu_ because Rebirth() mutates self_inc_.
    if (header.dst_inc != self_inc_) return;
    PeerState& peer = peers_[src];
    ack_inc = peer.peer_inc;

    // Cumulative ack (piggybacked or standalone): retire everything at or below it.
    bool progressed = false;
    while (!peer.unacked.empty() && peer.unacked.front().seq <= header.cum_ack) {
      peer.unacked.pop_front();
      progressed = true;
    }
    if (progressed) {
      // Fresh evidence the path works: rearm from the initial timeout.
      peer.retransmit_rounds = 0;
      peer.rto_us = peer.unacked.empty() ? 0 : initial_rto_us_;
      if (peer.rto_us != 0) {
        peer.rto_deadline = Clock::now() + std::chrono::microseconds(peer.rto_us);
      }
    }

    if (header.type == RelType::kData) {
      send_ack = true;
      if (header.seq < peer.next_expected) {
        ++dup_dropped;  // already delivered; re-ack so the sender stops retransmitting
      } else if (header.seq == peer.next_expected) {
        ready->emplace_back(payload.begin(), payload.end());
        ++peer.next_expected;
        // A filled gap may release buffered successors.
        auto it = peer.out_of_order.begin();
        while (it != peer.out_of_order.end() && it->first == peer.next_expected) {
          ready->push_back(std::move(it->second));
          it = peer.out_of_order.erase(it);
          ++peer.next_expected;
        }
      } else {
        // Out of order: buffer unless it is a duplicate of an already-buffered frame.
        auto [it, inserted] =
            peer.out_of_order.try_emplace(header.seq, payload.begin(), payload.end());
        (void)it;
        if (inserted) {
          counters_->rel_ooo_buffered.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++dup_dropped;
        }
      }
      ack_value = peer.next_expected - 1;
    }
  }

  if (dup_dropped > 0) {
    counters_->rel_dup_dropped.fetch_add(dup_dropped, std::memory_order_relaxed);
    if (event_hook_) event_hook_(RelEvent::kDupDrop, src, dup_dropped);
  }
  if (send_ack) {
    counters_->rel_acks_sent.fetch_add(1, std::memory_order_relaxed);
    transport_->Send(self_, src, EncodeRelAck(ack_value, ack_inc));
  }
}

void ReliableChannel::RetransmitLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // Earliest armed deadline across peers; sleep until then (or until a send arms one).
    Clock::time_point next = Clock::time_point::max();
    for (const PeerState& peer : peers_) {
      if (peer.rto_us != 0) next = std::min(next, peer.rto_deadline);
    }
    if (next == Clock::time_point::max()) {
      cv_.wait(lock);
      continue;
    }
    if (Clock::now() < next) {
      cv_.wait_until(lock, next);
      continue;
    }

    // Collect expired windows under the lock; transmit after releasing it.
    struct Burst {
      NodeId dst;
      std::vector<std::vector<std::byte>> frames;
    };
    std::vector<Burst> bursts;
    struct GaveUp {
      NodeId dst;
      uint64_t abandoned;
    };
    std::vector<GaveUp> gave_up;
    const Clock::time_point now = Clock::now();
    for (NodeId dst = 0; dst < peers_.size(); ++dst) {
      PeerState& peer = peers_[dst];
      if (peer.rto_us == 0 || now < peer.rto_deadline || peer.unacked.empty()) continue;
      // Retransmit cap: after this many rounds with zero ack progress, stop burning the wire
      // on a peer that is plainly gone — abandon the window and surface the verdict.
      if (peer.retransmit_rounds >= kMaxRetransmitRounds) {
        gave_up.push_back(GaveUp{dst, peer.unacked.size()});
        peer.unacked.clear();
        peer.rto_us = 0;
        peer.unreachable = true;
        continue;
      }
      ++peer.retransmit_rounds;
      Burst burst;
      burst.dst = dst;
      // Resend the whole unacked window (the receiver buffers out-of-order, so every frame
      // resent is potential progress), bounded to keep a long window from monopolizing.
      constexpr size_t kMaxBurst = 32;
      const uint32_t cum = peer.next_expected - 1;
      for (const Pending& pending : peer.unacked) {
        burst.frames.push_back(EncodeRelData(pending.seq, cum, peer.peer_inc, pending.app_frame));
        if (burst.frames.size() >= kMaxBurst) break;
      }
      bursts.push_back(std::move(burst));
      // Capped exponential backoff.
      peer.rto_us = std::min<uint64_t>(static_cast<uint64_t>(peer.rto_us) * 2, max_rto_us_);
      peer.rto_deadline = now + std::chrono::microseconds(peer.rto_us);
    }
    lock.unlock();
    for (const GaveUp& g : gave_up) {
      counters_->rel_peer_unreachable.fetch_add(1, std::memory_order_relaxed);
      if (event_hook_) event_hook_(RelEvent::kPeerUnreachable, g.dst, g.abandoned);
    }
    for (Burst& burst : bursts) {
      counters_->rel_retransmits.fetch_add(burst.frames.size(), std::memory_order_relaxed);
      if (event_hook_) {
        event_hook_(RelEvent::kRetransmit, burst.dst, burst.frames.size());
      }
      for (auto& frame : burst.frames) {
        transport_->Send(self_, burst.dst, std::move(frame));
      }
    }
    lock.lock();
  }
}

bool ReliableChannel::PeerUnreachable(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_[peer].unreachable;
}

void ReliableChannel::ResetPeer(NodeId peer, uint16_t peer_inc) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_[peer] = PeerState{};
  peers_[peer].peer_inc = peer_inc;
}

void ReliableChannel::Rebirth(uint16_t new_inc) {
  std::lock_guard<std::mutex> lock(mu_);
  self_inc_ = new_inc;
  peers_[self_] = PeerState{};
  peers_[self_].peer_inc = new_inc;
}

void ReliableChannel::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (retransmitter_.joinable()) retransmitter_.join();
}

uint32_t ReliableChannel::DebugCurrentRtoUs(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_[peer].rto_us;
}

size_t ReliableChannel::DebugUnacked(NodeId peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peers_[peer].unacked.size();
}

}  // namespace midway
