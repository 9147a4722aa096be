// Faulty transport: a seeded fault-injection decorator for lossy-network testing.
//
// Wraps the in-process transport and, from a single seed plus a rate profile, injects the
// failure modes a real network exhibits: packet drop, duplication, bounded reordering, and
// transient single-node partitions. Per-(src, dst) fault decisions are drawn from a pair-local
// RNG keyed by (seed, src, dst) and the pair's packet index, so the fault pattern a given
// sender/receiver pair experiences is reproducible from (seed, rates) alone regardless of how
// the application threads interleave. Partition scheduling uses one shared seeded stream; the
// schedule of decisions is deterministic, while which packet each decision lands on follows
// the global send interleaving.
//
// This transport deliberately violates the delivery guarantees the DSM protocol assumes
// (per-pair FIFO, exactly-once): it must only be used underneath the reliable delivery
// channel (src/core/reliable.h), which restores them.
#ifndef MIDWAY_SRC_NET_FAULTY_TRANSPORT_H_
#define MIDWAY_SRC_NET_FAULTY_TRANSPORT_H_

#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/net/inproc_transport.h"

namespace midway {

// Liveness frames are identified by the type tag after the 3-byte wire header. The tag
// values copy MsgType::kHeartbeat / kHeartbeatAck (src/core/protocol.h), which the net layer
// sits below and cannot include; protocol.cc static_asserts that they still match. RelType
// tags (0x71/0x72) are disjoint by design, so a reliable data frame can never be mistaken
// for a heartbeat.
inline constexpr uint8_t kHeartbeatTag = 11;
inline constexpr uint8_t kHeartbeatAckTag = 12;

// A scheduled node crash, consulted by the runtime: when `node`'s sync-point counter
// (acquire + release + barrier-wait entries) reaches `at_sync_point`, the application thread
// throws NodeCrashed and the transport cuts the node off mid-protocol. With `restart` true,
// System boots a fresh incarnation of the node that replays its checkpoint log and rejoins
// via the recovery protocol; otherwise the node stays dead.
struct CrashEvent {
  NodeId node = 0;
  uint32_t at_sync_point = 0;
  bool restart = false;
};

// A scheduled transient stall: starting at global send number `at_send`, packets to and from
// `node` are buffered (not dropped) for `packets` further global sends, then flushed in
// order. Models a long GC pause or scheduler hiccup — the node is healthy but silent, which
// is exactly the false-positive case a failure detector must survive.
struct StallEvent {
  NodeId node = 0;
  uint64_t at_send = 0;
  uint64_t packets = 64;
};

// A scripted membership-chaos window: between `start_us` and `end_us` (measured on the
// steady clock from transport construction), a class of the victim's traffic is silently
// dropped, then delivery heals. Unlike the probabilistic faults these are direct levers on
// the failure detector — they manufacture false suspicion and asymmetric partitions on
// demand, at any node count, reproducibly from the schedule alone:
//
//   kMuteHeartbeats  — heartbeats/acks *from* the victim die; its data traffic still flows.
//                      Peers declare a perfectly healthy node dead (pure false suspicion).
//   kIsolateOutbound — everything the victim sends dies; it still hears its peers. The
//                      victim watches itself get buried in real time.
//   kIsolateInbound  — everything sent *to* the victim dies; its own traffic still flows.
//                      The victim wrongly buries everyone else.
struct ChaosEvent {
  enum class Kind : uint8_t { kMuteHeartbeats = 0, kIsolateOutbound, kIsolateInbound };
  Kind kind = Kind::kMuteHeartbeats;
  NodeId victim = 0;
  uint64_t start_us = 0;  // window opens (inclusive)
  uint64_t end_us = 0;    // window heals (exclusive)
};

// Fault rates are probabilities per Send call. Self-sends (src == dst) are never faulted:
// they model intra-node queueing, not the network.
struct FaultProfile {
  uint64_t seed = 1;
  double drop_rate = 0.0;       // packet silently discarded
  double dup_rate = 0.0;        // packet delivered twice
  double reorder_rate = 0.0;    // packet held and swapped with the pair's next packet
  double partition_rate = 0.0;  // chance per packet that a transient partition begins
  uint32_t partition_packets = 64;  // global sends for which the victim stays cut off

  // Crash/stall schedules (deterministic given the schedule; see CrashEvent/StallEvent).
  std::vector<CrashEvent> crashes;
  std::vector<StallEvent> stalls;
  // Scripted suppression windows (see ChaosEvent). May overlap; any matching active window
  // drops the packet.
  std::vector<ChaosEvent> chaos;
  // When true, the chaos schedule is inert until DebugArmChaos() re-anchors its clock.
  // Window offsets are steady-clock, so a schedule anchored at construction starts ticking
  // while an oversubscribed host is still spawning node threads; deferred arming lets a
  // test rendezvous first and then measure windows from a cluster that is actually up.
  bool chaos_deferred = false;

  // The acceptance profile of the seeded stress suite: 10% drop + 5% duplication.
  static FaultProfile Lossy(uint64_t seed) {
    FaultProfile p;
    p.seed = seed;
    p.drop_rate = 0.10;
    p.dup_rate = 0.05;
    return p;
  }
};

class FaultyTransport final : public Transport {
 public:
  FaultyTransport(NodeId num_nodes, const FaultProfile& profile);

  NodeId NumNodes() const override { return inner_.NumNodes(); }
  void Send(NodeId src, NodeId dst, std::vector<std::byte> payload) override;
  bool Recv(NodeId self, Packet* out) override { return inner_.Recv(self, out); }
  void Shutdown() override;
  uint64_t BytesSent() const override { return inner_.BytesSent(); }
  uint64_t PacketsSent() const override { return inner_.PacketsSent(); }

  // Crash simulation: a crashed node's traffic is discarded in both directions, any held or
  // stalled packets involving it die, and its mailbox closes so the blocked comm thread
  // exits. ReviveNode readmits a restarted incarnation with an empty mailbox.
  void CrashNode(NodeId node) override;
  void ReviveNode(NodeId node) override;

  // Injection accounting (for tests and the fault-harness report).
  struct InjectionStats {
    uint64_t sends = 0;            // Send calls observed
    uint64_t dropped = 0;          // packets discarded by the drop rate
    uint64_t duplicated = 0;       // extra copies delivered
    uint64_t reordered = 0;        // packets swapped with their pair successor
    uint64_t partition_drops = 0;  // packets discarded because a partition was active
    uint64_t partitions = 0;       // transient partitions started
    uint64_t crash_drops = 0;      // packets discarded to/from a crashed node
    uint64_t stalled = 0;          // packets buffered by a scheduled stall
    uint64_t chaos_hb_mutes = 0;   // heartbeats/acks muted by a kMuteHeartbeats window
    uint64_t chaos_drops = 0;      // packets dropped by an isolation window
  };
  InjectionStats Stats() const;

  // Chaos schedule control (tests only). Arm re-anchors chaos time zero to now and activates
  // a deferred schedule; Heal immediately and permanently closes every window — the
  // suppression lasted exactly as long as the condition the test was manufacturing needed,
  // no matter how slowly the host convicts.
  void DebugArmChaos();
  void DebugHealChaos();

 private:
  struct PairState {
    SplitMix64 rng;
    // A packet held back by the reorder fault; delivered after the pair's next packet.
    std::optional<std::vector<std::byte>> held;
    explicit PairState(uint64_t seed) : rng(seed) {}
  };

  PairState& StateFor(NodeId src, NodeId dst);
  // True if an active chaos window says this packet must die. Caller holds mu_.
  bool ChaosDropsLocked(NodeId src, NodeId dst, const std::vector<std::byte>& payload);

  const FaultProfile profile_;
  uint64_t chaos_epoch_us_;  // steady-clock stamp of chaos time zero (construction or arm)
  bool chaos_armed_;         // false while a deferred schedule awaits DebugArmChaos()
  bool chaos_healed_ = false;  // DebugHealChaos() closed every window for good
  InProcTransport inner_;

  mutable std::mutex mu_;
  std::map<std::pair<NodeId, NodeId>, PairState> pairs_;
  SplitMix64 partition_rng_;
  uint64_t send_count_ = 0;
  NodeId partition_victim_ = 0;
  uint64_t partition_until_ = 0;  // send_count_ below which the victim is unreachable
  bool shutdown_ = false;
  InjectionStats stats_;

  // Crash/stall machinery.
  struct StalledPacket {
    NodeId src;
    NodeId dst;
    std::vector<std::byte> payload;
  };
  std::vector<bool> crashed_;
  size_t next_stall_ = 0;          // index into profile_.stalls (consumed in order)
  NodeId stall_victim_ = 0;
  uint64_t stall_until_ = 0;       // send_count_ below which the victim's traffic is held
  bool stall_active_ = false;
  std::vector<StalledPacket> held_by_stall_;
};

}  // namespace midway

#endif  // MIDWAY_SRC_NET_FAULTY_TRANSPORT_H_
