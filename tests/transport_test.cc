// Transport tests: in-process mailboxes and the epoll event-loop TCP mesh, both with every
// node local and as single-rank endpoints that adopt already-connected sockets.
#include <sys/socket.h>

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/net/epoll_transport.h"
#include "src/net/inproc_transport.h"

namespace midway {
namespace {

std::vector<std::byte> Payload(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

// Owned copy of a packet's bytes, whichever storage form (owned payload or pooled-buffer
// view) the transport delivered.
std::vector<std::byte> BytesOf(const Packet& p) {
  auto b = p.bytes();
  return {b.begin(), b.end()};
}

template <typename T>
std::unique_ptr<Transport> Make(NodeId n) {
  return std::make_unique<T>(n);
}

class TransportTest : public ::testing::TestWithParam<bool> {  // true = tcp
 protected:
  std::unique_ptr<Transport> MakeTransport(NodeId n) {
    return GetParam() ? Make<EpollTransport>(n) : Make<InProcTransport>(n);
  }
};

INSTANTIATE_TEST_SUITE_P(Kinds, TransportTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Tcp" : "InProc";
                         });

TEST_P(TransportTest, PointToPoint) {
  auto transport = MakeTransport(2);
  transport->Send(0, 1, Payload({1, 2, 3}));
  Packet p;
  ASSERT_TRUE(transport->Recv(1, &p));
  EXPECT_EQ(p.src, 0);
  EXPECT_EQ(BytesOf(p), Payload({1, 2, 3}));
}

TEST_P(TransportTest, SelfSend) {
  auto transport = MakeTransport(3);
  transport->Send(2, 2, Payload({9}));
  Packet p;
  ASSERT_TRUE(transport->Recv(2, &p));
  EXPECT_EQ(p.src, 2);
  EXPECT_EQ(BytesOf(p), Payload({9}));
}

TEST_P(TransportTest, EmptyPayload) {
  auto transport = MakeTransport(2);
  transport->Send(0, 1, {});
  Packet p;
  ASSERT_TRUE(transport->Recv(1, &p));
  EXPECT_TRUE(p.bytes().empty());
}

TEST_P(TransportTest, FifoPerSenderReceiverPair) {
  auto transport = MakeTransport(2);
  for (int i = 0; i < 100; ++i) {
    transport->Send(0, 1, Payload({i & 0xFF}));
  }
  for (int i = 0; i < 100; ++i) {
    Packet p;
    ASSERT_TRUE(transport->Recv(1, &p));
    EXPECT_EQ(BytesOf(p), Payload({i & 0xFF}));
  }
}

TEST_P(TransportTest, LargeFrame) {
  auto transport = MakeTransport(2);
  SplitMix64 rng(1);
  std::vector<std::byte> big(1 << 20);
  for (auto& b : big) b = static_cast<std::byte>(rng.Next());
  auto copy = big;
  transport->Send(1, 0, std::move(big));
  Packet p;
  ASSERT_TRUE(transport->Recv(0, &p));
  EXPECT_EQ(BytesOf(p), copy);
}

TEST_P(TransportTest, ShutdownUnblocksReceiver) {
  auto transport = MakeTransport(2);
  std::atomic<bool> returned{false};
  std::thread receiver([&] {
    Packet p;
    bool got = transport->Recv(1, &p);
    EXPECT_FALSE(got);
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  transport->Shutdown();
  receiver.join();
  EXPECT_TRUE(returned.load());
}

TEST_P(TransportTest, CountsBytesAndPackets) {
  auto transport = MakeTransport(2);
  transport->Send(0, 1, Payload({1, 2, 3, 4}));
  transport->Send(0, 1, Payload({5}));
  EXPECT_EQ(transport->BytesSent(), 5u);
  EXPECT_EQ(transport->PacketsSent(), 2u);
}

// RecvBatch must hand back everything queued, in order, and report shutdown the same way
// Recv does.
TEST_P(TransportTest, RecvBatchDrainsQueueInOrder) {
  auto transport = MakeTransport(2);
  constexpr int kCount = 40;
  for (int i = 0; i < kCount; ++i) {
    transport->Send(0, 1, Payload({i}));
  }
  std::vector<Packet> got;
  while (static_cast<int>(got.size()) < kCount) {
    ASSERT_TRUE(transport->RecvBatch(1, &got));
  }
  ASSERT_EQ(static_cast<int>(got.size()), kCount);
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(BytesOf(got[i]), Payload({i}));
  }
  transport->Shutdown();
  std::vector<Packet> empty;
  EXPECT_FALSE(transport->RecvBatch(1, &empty));
  EXPECT_TRUE(empty.empty());
}

TEST_P(TransportTest, AllPairsConcurrently) {
  constexpr NodeId kNodes = 4;
  constexpr int kPerPair = 50;
  auto transport = MakeTransport(kNodes);
  std::vector<std::thread> threads;
  std::vector<std::atomic<int>> received(kNodes);
  for (auto& r : received) r.store(0);
  for (NodeId n = 0; n < kNodes; ++n) {
    threads.emplace_back([&, n] {
      // Send kPerPair messages to every other node, then receive my share.
      for (int i = 0; i < kPerPair; ++i) {
        for (NodeId d = 0; d < kNodes; ++d) {
          if (d != n) transport->Send(n, d, Payload({static_cast<int>(n), i & 0xFF}));
        }
      }
      for (int i = 0; i < kPerPair * (kNodes - 1); ++i) {
        Packet p;
        ASSERT_TRUE(transport->Recv(n, &p));
        ASSERT_EQ(p.bytes().size(), 2u);
        EXPECT_EQ(static_cast<NodeId>(p.bytes()[0]), p.src);
        received[n].fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (NodeId n = 0; n < kNodes; ++n) {
    EXPECT_EQ(received[n].load(), kPerPair * (kNodes - 1));
  }
}

TEST(EpollTransportTest, ManySmallFramesStress) {
  EpollTransport transport(2);
  constexpr int kCount = 5000;
  std::thread sender([&] {
    for (int i = 0; i < kCount; ++i) {
      std::vector<std::byte> p(1 + (i % 13));
      p[0] = static_cast<std::byte>(i & 0xFF);
      transport.Send(0, 1, std::move(p));
    }
  });
  int got = 0;
  for (; got < kCount; ++got) {
    Packet p;
    ASSERT_TRUE(transport.Recv(1, &p));
    EXPECT_EQ(p.bytes()[0], static_cast<std::byte>(got & 0xFF));
  }
  sender.join();
  EXPECT_EQ(got, kCount);
}

// A sender saturating one link must not wedge: backpressure blocks it while the loop
// flushes, and every byte still arrives in order.
TEST(EpollTransportTest, BackpressureUnderOneSidedFlood) {
  EpollTransport transport(2);
  constexpr int kFrames = 200;
  constexpr size_t kFrameBytes = 256 * 1024;  // 50 MB total, far over kMaxPendingBytes
  std::thread sender([&] {
    for (int i = 0; i < kFrames; ++i) {
      std::vector<std::byte> p(kFrameBytes, static_cast<std::byte>(i & 0xFF));
      transport.Send(0, 1, std::move(p));
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    Packet p;
    ASSERT_TRUE(transport.Recv(1, &p));
    ASSERT_EQ(p.bytes().size(), kFrameBytes);
    EXPECT_EQ(p.bytes()[0], static_cast<std::byte>(i & 0xFF));
  }
  sender.join();
}

// Single-rank endpoints, one per node, each adopting its ends of a socketpair per link: the
// shape RunDistributedNode builds across processes, here inside one process.
std::vector<std::unique_ptr<EpollTransport>> AdoptedMesh(NodeId n) {
  std::vector<std::vector<int>> fds(n, std::vector<int>(n, -1));
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      int sv[2];
      EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
      fds[i][j] = sv[0];
      fds[j][i] = sv[1];
    }
  }
  std::vector<std::unique_ptr<EpollTransport>> mesh;
  for (NodeId i = 0; i < n; ++i) {
    mesh.push_back(std::make_unique<EpollTransport>(i, n, fds[i]));
  }
  return mesh;
}

TEST(AdoptedSocketsTest, FifoPerPairWithTwoSenders) {
  auto mesh = AdoptedMesh(3);
  constexpr int kPer = 300;
  std::thread sender0([&] {
    for (int i = 0; i < kPer; ++i) mesh[0]->Send(0, 2, Payload({0, i & 0xFF, i >> 8}));
  });
  std::thread sender1([&] {
    for (int i = 0; i < kPer; ++i) mesh[1]->Send(1, 2, Payload({1, i & 0xFF, i >> 8}));
  });
  int next[2] = {0, 0};
  for (int k = 0; k < 2 * kPer; ++k) {
    Packet p;
    ASSERT_TRUE(mesh[2]->Recv(2, &p));
    ASSERT_LT(p.src, 2);
    const int seq = static_cast<int>(p.bytes()[1]) | (static_cast<int>(p.bytes()[2]) << 8);
    EXPECT_EQ(static_cast<NodeId>(p.bytes()[0]), p.src);
    EXPECT_EQ(seq, next[p.src]++) << "from node " << p.src;
  }
  sender0.join();
  sender1.join();
  EXPECT_EQ(next[0], kPer);
  EXPECT_EQ(next[1], kPer);
}

TEST(AdoptedSocketsTest, SelfSend) {
  auto mesh = AdoptedMesh(3);
  mesh[1]->Send(1, 1, Payload({7, 8}));
  Packet p;
  ASSERT_TRUE(mesh[1]->Recv(1, &p));
  EXPECT_EQ(p.src, 1);
  EXPECT_EQ(BytesOf(p), Payload({7, 8}));
}

// A SendV frame several times the pooled receive-buffer size, gathered from uneven segments,
// arrives byte-exact.
TEST(AdoptedSocketsTest, LargeSendVFrameIsByteExact) {
  auto mesh = AdoptedMesh(3);
  SplitMix64 rng(5);
  std::vector<std::byte> big((3 << 20) / 2 + 17);
  for (auto& b : big) b = static_cast<std::byte>(rng.Next());
  const std::span<const std::byte> all(big);
  const std::span<const std::byte> segments[] = {
      all.subspan(0, 3), all.subspan(3, 300'000), all.subspan(300'003)};
  std::thread sender([&] { mesh[0]->SendV(0, 2, segments); });
  Packet p;
  ASSERT_TRUE(mesh[2]->Recv(2, &p));
  sender.join();
  EXPECT_EQ(p.src, 0);
  EXPECT_EQ(BytesOf(p), big);
  EXPECT_EQ(mesh[0]->BytesSent(), big.size());
}

TEST(AdoptedSocketsTest, ShutdownUnblocksBlockedRecv) {
  auto mesh = AdoptedMesh(3);
  std::atomic<bool> returned{false};
  std::thread receiver([&] {
    Packet p;
    EXPECT_FALSE(mesh[0]->Recv(0, &p));
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  mesh[0]->Shutdown();
  receiver.join();
  EXPECT_TRUE(returned.load());
}

// A peer process that shuts down and exits first (as ranks do after their final barrier) is
// a normal end of the link, not an error: no warning, even when its close is a reset.
TEST(AdoptedSocketsTest, PeerExitingFirstLogsNoWarning) {
  auto mesh = AdoptedMesh(2);
  mesh[0]->Shutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // node 0's loop has stopped
  mesh[1]->Send(1, 0, Payload({1}));  // left unread, so closing node 0's socket resets it
  ::testing::internal::CaptureStderr();
  mesh[0].reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mesh[1]->Send(1, 0, Payload({2}));  // to a closed peer
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mesh[1].reset();
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(log.find("[W "), std::string::npos) << log;
}

}  // namespace
}  // namespace midway
