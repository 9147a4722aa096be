// Reliable delivery channel: restores the transport guarantees the DSM protocol assumes —
// per-(src, dst) FIFO order and exactly-once delivery — on top of a transport that may drop,
// duplicate, or reorder packets (src/net/faulty_transport.h).
//
// Mechanism (one instance per runtime, i.e. per protocol endpoint):
//   * every outgoing protocol frame is wrapped in a data frame with a per-destination
//     sequence number and a piggybacked cumulative ack (src/core/protocol.h RelType);
//   * the receiver delivers frames to the protocol strictly in sequence order, buffering
//     out-of-order arrivals and dropping duplicates; every data arrival is answered with a
//     cumulative ack (piggybacked when data flows back, standalone otherwise);
//   * a retransmit thread resends the unacked window of any peer whose retransmission
//     timeout expired, doubling the timeout per round up to a cap and resetting it when an
//     ack makes progress.
//
// All bookkeeping is under one channel mutex, never held across transport calls or callbacks,
// so lock order with the runtime mutex is acyclic (runtime -> channel on send; callbacks are
// invoked lock-free and may take the runtime mutex).
#ifndef MIDWAY_SRC_CORE_RELIABLE_H_
#define MIDWAY_SRC_CORE_RELIABLE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/config.h"
#include "src/core/counters.h"
#include "src/core/protocol.h"
#include "src/net/transport.h"

namespace midway {

// Delivery events surfaced to the runtime's trace layer.
enum class RelEvent : uint8_t { kRetransmit, kDupDrop, kPeerUnreachable };

class ReliableChannel {
 public:
  // Invoked (outside the channel mutex) for noteworthy delivery events so the runtime can
  // trace them: retransmissions, duplicate drops, and peers given up on. `detail` is the
  // frame count (for kPeerUnreachable, the abandoned-window size).
  using EventHook = std::function<void(RelEvent event, NodeId peer, uint64_t detail)>;

  // `self_inc` is this endpoint's node incarnation: incoming frames addressed to a different
  // incarnation (stale retransmissions aimed at a previous life) are silently dropped.
  ReliableChannel(Transport* transport, NodeId self, const SystemConfig& config,
                  Counters* counters, uint16_t self_inc = 0);
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  void set_event_hook(EventHook hook) { event_hook_ = std::move(hook); }

  // Wraps `frame`, records it for retransmission, and sends it. Thread safe. Frames to a
  // peer already declared unreachable are dropped (the caller learns via PeerUnreachable or
  // the event hook; recovery calls ResetPeer to readmit a restarted incarnation).
  void Send(NodeId dst, std::vector<std::byte> frame);

  // Processes one raw packet from `src`. Appends to `ready` the application frames that are
  // now deliverable in order (possibly none, possibly several when a gap fills). Sends the
  // ack. Thread safe, but intended to be called from the single communication thread.
  void OnPacket(NodeId src, std::span<const std::byte> frame,
                std::vector<std::vector<std::byte>>* ready);

  // True once the retransmit cap expired for `peer` and its window was abandoned.
  bool PeerUnreachable(NodeId peer) const;

  // Discards all per-peer state (sequences, buffers, unreachable verdict) and records the
  // peer's new incarnation; both sides of a pair must reset to restart the sequence space.
  void ResetPeer(NodeId peer, uint16_t peer_inc);

  // In-place endpoint rebirth for a wrongly-buried node: adopts `new_inc` as this endpoint's
  // incarnation and resets the loopback peer to match. Frames addressed to the previous
  // incarnation are dropped from this point on — the survivors reset their sender side for
  // exactly this incarnation when the rejoin epoch begins, so both halves of every pair
  // restart their sequence space in the same life. Thread safe.
  void Rebirth(uint16_t new_inc);

  // Stops the retransmit thread. Idempotent; called before the transport shuts down.
  void Stop();

  // Test hooks.
  uint32_t DebugCurrentRtoUs(NodeId peer) const;
  size_t DebugUnacked(NodeId peer) const;

 private:
  using Clock = std::chrono::steady_clock;

  // Retransmission rounds without ack progress before the channel abandons a peer's unacked
  // window and reports the peer unreachable: ~2s of silence at the backoff cap, far beyond
  // any injected fault short of a real crash.
  static constexpr uint32_t kMaxRetransmitRounds = 60;

  struct Pending {
    uint32_t seq = 0;
    std::vector<std::byte> app_frame;
  };

  struct PeerState {
    // Sender side.
    uint32_t next_seq = 1;
    std::deque<Pending> unacked;
    Clock::time_point rto_deadline{};
    uint32_t rto_us = 0;  // current (possibly backed-off) timeout; 0 = nothing in flight
    uint32_t retransmit_rounds = 0;  // consecutive RTO expiries without ack progress
    bool unreachable = false;        // retransmit cap hit; window abandoned
    uint16_t peer_inc = 0;           // destination incarnation stamped into data frames
    // Receiver side.
    uint32_t next_expected = 1;
    std::map<uint32_t, std::vector<std::byte>> out_of_order;
  };

  void RetransmitLoop();

  Transport* const transport_;
  const NodeId self_;
  const uint32_t initial_rto_us_;
  const uint32_t max_rto_us_;
  Counters* const counters_;
  EventHook event_hook_;

  mutable std::mutex mu_;
  uint16_t self_inc_;  // guarded by mu_; mutated only by Rebirth()
  std::condition_variable cv_;
  std::vector<PeerState> peers_;
  bool stop_ = false;
  std::thread retransmitter_;
};

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_RELIABLE_H_
