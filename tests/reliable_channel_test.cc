// The reliability sublayer in isolation: retransmission on loss, duplicate suppression,
// capped exponential backoff, and FIFO exactly-once delivery under combined faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/reliable.h"
#include "src/net/faulty_transport.h"
#include "src/net/inproc_transport.h"

namespace midway {
namespace {

using namespace std::chrono_literals;

// Decorator whose per-packet fate is decided by a test-supplied predicate (return true to
// drop). Lets a test lose exactly the packets its scenario needs. A held link queues its
// packets until ReleaseLink delivers them in order, so a test can pin the state between a
// send and the peer's answer.
class ScriptedTransport : public Transport {
 public:
  using DropFn = std::function<bool(NodeId src, NodeId dst, const std::vector<std::byte>&)>;

  ScriptedTransport(NodeId num_nodes, DropFn drop) : inner_(num_nodes), drop_(std::move(drop)) {}

  NodeId NumNodes() const override { return inner_.NumNodes(); }
  void Send(NodeId src, NodeId dst, std::vector<std::byte> payload) override {
    if (drop_ && drop_(src, dst, payload)) return;
    {
      std::lock_guard<std::mutex> lock(hold_mu_);
      if (holding_ && src == held_src_ && dst == held_dst_) {
        held_.push_back(std::move(payload));
        return;
      }
    }
    inner_.Send(src, dst, std::move(payload));
  }
  void HoldLink(NodeId src, NodeId dst) {
    std::lock_guard<std::mutex> lock(hold_mu_);
    holding_ = true;
    held_src_ = src;
    held_dst_ = dst;
  }
  void ReleaseLink() {
    std::vector<std::vector<std::byte>> held;
    NodeId src;
    NodeId dst;
    {
      std::lock_guard<std::mutex> lock(hold_mu_);
      holding_ = false;
      held.swap(held_);
      src = held_src_;
      dst = held_dst_;
    }
    for (auto& payload : held) inner_.Send(src, dst, std::move(payload));
  }
  bool Recv(NodeId self, Packet* out) override { return inner_.Recv(self, out); }
  void Shutdown() override { inner_.Shutdown(); }
  uint64_t BytesSent() const override { return inner_.BytesSent(); }
  uint64_t PacketsSent() const override { return inner_.PacketsSent(); }

 private:
  InProcTransport inner_;
  DropFn drop_;
  std::mutex hold_mu_;
  bool holding_ = false;
  NodeId held_src_ = 0;
  NodeId held_dst_ = 0;
  std::vector<std::vector<std::byte>> held_;
};

bool IsRelData(const std::vector<std::byte>& frame) {
  // The RelType byte sits just past the magic/version frame header.
  return frame.size() > kWireHeaderBytes &&
         frame[kWireHeaderBytes] == static_cast<std::byte>(RelType::kData);
}

std::vector<std::byte> AppFrame(uint8_t tag) { return {std::byte{tag}, std::byte{0xAB}}; }

// One reliable endpoint with the CommLoop-style receive pump the Runtime would provide.
class Endpoint {
 public:
  Endpoint(Transport* transport, NodeId self, const SystemConfig& config)
      : channel_(transport, self, config, &counters_),
        pump_([this, transport, self] {
          Packet packet;
          std::vector<std::vector<std::byte>> ready;
          while (transport->Recv(self, &packet)) {
            ready.clear();
            channel_.OnPacket(packet.src, packet.payload, &ready);
            if (ready.empty()) continue;
            std::lock_guard<std::mutex> lock(mu_);
            for (auto& frame : ready) delivered_.push_back(std::move(frame));
            cv_.notify_all();
          }
        }) {}

  ~Endpoint() {
    channel_.Stop();
    pump_.join();
  }

  ReliableChannel& channel() { return channel_; }
  Counters& counters() { return counters_; }

  std::vector<std::vector<std::byte>> Delivered() {
    std::lock_guard<std::mutex> lock(mu_);
    return delivered_;
  }

  bool WaitForDelivered(size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return delivered_.size() >= n; });
  }

 private:
  Counters counters_;
  ReliableChannel channel_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::vector<std::byte>> delivered_;
  std::thread pump_;
};

SystemConfig FastRtoConfig() {
  SystemConfig config;
  config.rel_initial_rto_us = 500;
  config.rel_max_rto_us = 4000;
  return config;
}

// Declared after the endpoints so it destructs first: an early ASSERT return still shuts the
// transport down before the endpoint pump threads are joined.
struct ShutdownGuard {
  Transport* transport;
  ~ShutdownGuard() { transport->Shutdown(); }
};

TEST(ReliableChannelTest, RetransmitRecoversDroppedFrame) {
  // Lose the first two data frames 0→1; the RTO must recover the message.
  std::atomic<int> to_drop{2};
  ScriptedTransport transport(2, [&](NodeId src, NodeId dst, const std::vector<std::byte>& f) {
    return src == 0 && dst == 1 && IsRelData(f) && to_drop.fetch_sub(1) > 0;
  });
  const SystemConfig config = FastRtoConfig();
  {
    Endpoint a(&transport, 0, config);
    Endpoint b(&transport, 1, config);
    ShutdownGuard guard{&transport};
    a.channel().Send(1, AppFrame(42));
    ASSERT_TRUE(b.WaitForDelivered(1, 5s)) << "retransmission never got through";
    EXPECT_EQ(b.Delivered()[0], AppFrame(42));
    EXPECT_GE(a.counters().rel_retransmits.load(), 2u);
    // The delivered ack must eventually clear the sender's window.
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (a.channel().DebugUnacked(1) > 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(a.channel().DebugUnacked(1), 0u);
  }
}

TEST(ReliableChannelTest, DuplicatesSuppressedBySequenceNumber) {
  // Deliver every packet twice (FaultyTransport at dup_rate 1); the receiver must hand each
  // message up exactly once.
  FaultProfile profile;
  profile.seed = 40;
  profile.dup_rate = 1.0;
  FaultyTransport dup_transport(2, profile);
  const SystemConfig config = FastRtoConfig();
  {
    Endpoint a(&dup_transport, 0, config);
    Endpoint b(&dup_transport, 1, config);
    ShutdownGuard guard{&dup_transport};
    constexpr int kCount = 50;
    for (int i = 0; i < kCount; ++i) {
      a.channel().Send(1, AppFrame(static_cast<uint8_t>(i)));
    }
    ASSERT_TRUE(b.WaitForDelivered(kCount, 5s));
    std::this_thread::sleep_for(20ms);  // would-be extra deliveries surface here
    const auto delivered = b.Delivered();
    ASSERT_EQ(delivered.size(), static_cast<size_t>(kCount)) << "duplicate leaked through";
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(delivered[i], AppFrame(static_cast<uint8_t>(i)));
    }
    EXPECT_GT(b.counters().rel_dup_dropped.load(), 0u);
  }
}

TEST(ReliableChannelTest, BackoffDoublesAndCaps) {
  // A black hole toward node 1: no data ever arrives, no ack ever returns.
  ScriptedTransport transport(2, [](NodeId, NodeId dst, const std::vector<std::byte>&) {
    return dst == 1;
  });
  const SystemConfig config = FastRtoConfig();
  {
    Endpoint a(&transport, 0, config);
    ShutdownGuard guard{&transport};
    a.channel().Send(1, AppFrame(7));
    // 500 → 1000 → 2000 → 4000(cap): reached after ~3.5ms of expiries; generous deadline.
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (a.channel().DebugCurrentRtoUs(1) < config.rel_max_rto_us &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(a.channel().DebugCurrentRtoUs(1), config.rel_max_rto_us);
    // Give it a few more expiry rounds at the cap: it must never exceed it.
    std::this_thread::sleep_for(30ms);
    EXPECT_EQ(a.channel().DebugCurrentRtoUs(1), config.rel_max_rto_us);
    EXPECT_GE(a.counters().rel_retransmits.load(), 3u);
  }
}

TEST(ReliableChannelTest, AckProgressResetsBackoff) {
  // Drop the first 3 data frames so the RTO backs off, then let traffic through; the next
  // send must start from the initial RTO again. Timeouts are long enough here that reading
  // the RTO right after Send cannot race a genuine expiry, and node 1's acks are held until
  // the RTO has been read: an ack of frame 2 would empty the window and reset the RTO to 0.
  std::atomic<int> to_drop{3};
  ScriptedTransport transport(2, [&](NodeId src, NodeId dst, const std::vector<std::byte>& f) {
    return src == 0 && dst == 1 && IsRelData(f) && to_drop.fetch_sub(1) > 0;
  });
  SystemConfig config;
  config.rel_initial_rto_us = 20'000;
  config.rel_max_rto_us = 160'000;
  {
    Endpoint a(&transport, 0, config);
    Endpoint b(&transport, 1, config);
    ShutdownGuard guard{&transport};
    a.channel().Send(1, AppFrame(1));
    ASSERT_TRUE(b.WaitForDelivered(1, 5s));
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (a.channel().DebugUnacked(1) > 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_EQ(a.channel().DebugUnacked(1), 0u);
    transport.HoldLink(1, 0);
    a.channel().Send(1, AppFrame(2));
    EXPECT_EQ(a.channel().DebugCurrentRtoUs(1), config.rel_initial_rto_us);
    transport.ReleaseLink();
    ASSERT_TRUE(b.WaitForDelivered(2, 5s));
  }
}

TEST(ReliableChannelTest, FifoExactlyOnceUnderCombinedFaults) {
  // Bidirectional streams over drop + duplication + reordering: each side must deliver the
  // peer's stream exactly once, in order — the contract the DSM protocol needs.
  FaultProfile profile;
  profile.seed = 99;
  profile.drop_rate = 0.15;
  profile.dup_rate = 0.10;
  profile.reorder_rate = 0.10;
  FaultyTransport transport(2, profile);
  const SystemConfig config = FastRtoConfig();
  {
    Endpoint a(&transport, 0, config);
    Endpoint b(&transport, 1, config);
    ShutdownGuard guard{&transport};
    constexpr int kCount = 200;
    for (int i = 0; i < kCount; ++i) {
      a.channel().Send(1, AppFrame(static_cast<uint8_t>(i)));
      b.channel().Send(0, AppFrame(static_cast<uint8_t>(i + 1)));
    }
    ASSERT_TRUE(b.WaitForDelivered(kCount, 10s)) << "a→b stream incomplete";
    ASSERT_TRUE(a.WaitForDelivered(kCount, 10s)) << "b→a stream incomplete";
    std::this_thread::sleep_for(20ms);
    const auto at_b = b.Delivered();
    const auto at_a = a.Delivered();
    ASSERT_EQ(at_b.size(), static_cast<size_t>(kCount));
    ASSERT_EQ(at_a.size(), static_cast<size_t>(kCount));
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(at_b[i], AppFrame(static_cast<uint8_t>(i))) << "a→b out of order at " << i;
      EXPECT_EQ(at_a[i], AppFrame(static_cast<uint8_t>(i + 1))) << "b→a out of order at " << i;
    }
    // The faults actually happened and the machinery actually worked.
    const auto stats = transport.Stats();
    EXPECT_GT(stats.dropped, 0u);
    EXPECT_GT(stats.duplicated, 0u);
    EXPECT_GT(a.counters().rel_retransmits.load() + b.counters().rel_retransmits.load(), 0u);
  }
}

}  // namespace
}  // namespace midway
