#include "src/net/faulty_transport.h"

#include <chrono>

#include "src/net/wire.h"

namespace midway {
namespace {

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

bool IsLivenessFrame(const std::vector<std::byte>& payload) {
  if (payload.size() <= kWireHeaderBytes) return false;
  const uint8_t tag = static_cast<uint8_t>(payload[kWireHeaderBytes]);
  return tag == kHeartbeatTag || tag == kHeartbeatAckTag;
}

// Mixes the profile seed with the pair identity so every (src, dst) stream is independent.
uint64_t PairSeed(uint64_t seed, NodeId src, NodeId dst) {
  SplitMix64 mixer(seed ^ (static_cast<uint64_t>(src) << 32 | (static_cast<uint64_t>(dst) + 1)));
  return mixer.Next();
}

bool Roll(SplitMix64& rng, double rate) {
  if (rate <= 0.0) return false;
  return rng.NextDouble() < rate;
}

}  // namespace

FaultyTransport::FaultyTransport(NodeId num_nodes, const FaultProfile& profile)
    : profile_(profile),
      chaos_epoch_us_(SteadyNowUs()),
      chaos_armed_(!profile.chaos_deferred),
      inner_(num_nodes),
      partition_rng_(PairSeed(profile.seed, num_nodes, num_nodes)),
      crashed_(num_nodes, false) {}

FaultyTransport::PairState& FaultyTransport::StateFor(NodeId src, NodeId dst) {
  auto it = pairs_.find({src, dst});
  if (it == pairs_.end()) {
    it = pairs_.emplace(std::make_pair(src, dst), PairState(PairSeed(profile_.seed, src, dst)))
             .first;
  }
  return it->second;
}

void FaultyTransport::Send(NodeId src, NodeId dst, std::vector<std::byte> payload) {
  std::unique_lock<std::mutex> lock(mu_);
  if (shutdown_) return;
  ++send_count_;
  ++stats_.sends;

  // A crashed node neither sends nor receives; its traffic dies on the floor.
  if (crashed_[src] || crashed_[dst]) {
    ++stats_.crash_drops;
    return;
  }

  // Scheduled stall: release an expired stall's buffered traffic (in original order) before
  // handling this packet, then check whether the next scheduled stall begins now.
  std::vector<StalledPacket> flush;
  if (stall_active_ && send_count_ >= stall_until_) {
    stall_active_ = false;
    flush.swap(held_by_stall_);
  }
  if (!stall_active_ && next_stall_ < profile_.stalls.size() &&
      send_count_ >= profile_.stalls[next_stall_].at_send) {
    const StallEvent& ev = profile_.stalls[next_stall_++];
    stall_victim_ = ev.node;
    stall_until_ = send_count_ + ev.packets;
    stall_active_ = true;
  }
  if (stall_active_ && src != dst && (src == stall_victim_ || dst == stall_victim_)) {
    ++stats_.stalled;
    held_by_stall_.push_back(StalledPacket{src, dst, std::move(payload)});
    if (!flush.empty()) {
      lock.unlock();
      for (auto& p : flush) inner_.Send(p.src, p.dst, std::move(p.payload));
    }
    return;
  }
  if (!flush.empty()) {
    // Deliver the backlog first so the stall preserves per-pair ordering.
    for (auto& p : flush) inner_.Send(p.src, p.dst, std::move(p.payload));
    flush.clear();
  }

  // Self-sends bypass injection entirely: they never cross the network.
  if (src == dst) {
    lock.unlock();
    inner_.Send(src, dst, std::move(payload));
    return;
  }

  // Scripted chaos windows (membership-chaos schedules): drop before the probabilistic
  // faults so a schedule's effect does not depend on the seed.
  if (!profile_.chaos.empty() && ChaosDropsLocked(src, dst, payload)) {
    return;
  }

  // Transient partition: one victim node at a time loses everything in and out until the
  // global send counter passes the healing point. Retransmissions keep the counter moving,
  // so a partition always heals even when every surviving flow is blocked on the victim.
  if (partition_until_ > send_count_ && (src == partition_victim_ || dst == partition_victim_)) {
    ++stats_.partition_drops;
    return;
  }
  if (partition_until_ <= send_count_ && Roll(partition_rng_, profile_.partition_rate)) {
    partition_victim_ = static_cast<NodeId>(partition_rng_.NextBounded(inner_.NumNodes()));
    partition_until_ = send_count_ + profile_.partition_packets;
    ++stats_.partitions;
    if (src == partition_victim_ || dst == partition_victim_) {
      ++stats_.partition_drops;
      return;
    }
  }

  PairState& pair = StateFor(src, dst);
  if (Roll(pair.rng, profile_.drop_rate)) {
    ++stats_.dropped;
    return;
  }
  const bool duplicate = Roll(pair.rng, profile_.dup_rate);
  const bool reorder = Roll(pair.rng, profile_.reorder_rate);

  // Reorder-within-bounds: hold at most one packet per pair and release it right after the
  // pair's next packet, i.e. adjacent swaps only — displacement is bounded by one.
  std::vector<std::vector<std::byte>> deliver;
  if (pair.held.has_value()) {
    if (duplicate) deliver.push_back(payload);
    deliver.push_back(std::move(payload));
    deliver.push_back(std::move(*pair.held));
    pair.held.reset();
  } else if (reorder) {
    ++stats_.reordered;
    if (duplicate) deliver.push_back(payload);  // one copy now, one held: dup + reorder
    pair.held = std::move(payload);
  } else {
    if (duplicate) deliver.push_back(payload);
    deliver.push_back(std::move(payload));
  }
  if (duplicate) ++stats_.duplicated;

  lock.unlock();
  for (auto& copy : deliver) {
    inner_.Send(src, dst, std::move(copy));
  }
}

void FaultyTransport::DebugArmChaos() {
  std::lock_guard<std::mutex> lock(mu_);
  chaos_epoch_us_ = SteadyNowUs();
  chaos_armed_ = true;
}

void FaultyTransport::DebugHealChaos() {
  std::lock_guard<std::mutex> lock(mu_);
  chaos_healed_ = true;
}

bool FaultyTransport::ChaosDropsLocked(NodeId src, NodeId dst,
                                       const std::vector<std::byte>& payload) {
  if (!chaos_armed_ || chaos_healed_) return false;
  const uint64_t now_us = SteadyNowUs() - chaos_epoch_us_;
  for (const ChaosEvent& ev : profile_.chaos) {
    if (now_us < ev.start_us || now_us >= ev.end_us) continue;
    switch (ev.kind) {
      case ChaosEvent::Kind::kMuteHeartbeats:
        if (src == ev.victim && IsLivenessFrame(payload)) {
          ++stats_.chaos_hb_mutes;
          return true;
        }
        break;
      case ChaosEvent::Kind::kIsolateOutbound:
        if (src == ev.victim) {
          ++stats_.chaos_drops;
          return true;
        }
        break;
      case ChaosEvent::Kind::kIsolateInbound:
        if (dst == ev.victim) {
          ++stats_.chaos_drops;
          return true;
        }
        break;
    }
  }
  return false;
}

void FaultyTransport::CrashNode(NodeId node) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_[node] = true;
    // In-flight packets involving the dead node die with it.
    for (auto& [key, pair] : pairs_) {
      if (key.first == node || key.second == node) pair.held.reset();
    }
    std::erase_if(held_by_stall_,
                  [node](const StalledPacket& p) { return p.src == node || p.dst == node; });
  }
  inner_.CloseMailbox(node);
}

void FaultyTransport::ReviveNode(NodeId node) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    crashed_[node] = false;
  }
  inner_.ReopenMailbox(node);
}

void FaultyTransport::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [key, pair] : pairs_) {
      pair.held.reset();  // held packets die with the network
    }
    held_by_stall_.clear();
  }
  inner_.Shutdown();
}

FaultyTransport::InjectionStats FaultyTransport::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace midway
