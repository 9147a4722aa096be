// End-to-end tests of the entry-consistency protocol engine across all detection strategies.
#include <algorithm>
#include <memory>
#include <mutex>
#include <numeric>
#include <ostream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/midway.h"
#include "src/net/inproc_transport.h"

namespace midway {
namespace {

std::vector<DetectionMode> AllDsmModes() {
  return {DetectionMode::kRt,        DetectionMode::kVmSoft,  DetectionMode::kVmSigsegv,
          DetectionMode::kBlast,     DetectionMode::kTwinAll, DetectionMode::kRtTwoLevel,
          DetectionMode::kRtQueue,   DetectionMode::kRtHybrid};
}

SystemConfig MakeConfig(DetectionMode mode, uint16_t procs) {
  SystemConfig config;
  config.mode = mode;
  config.num_procs = procs;
  return config;
}

class AllModesTest : public ::testing::TestWithParam<DetectionMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, AllModesTest, ::testing::ValuesIn(AllDsmModes()),
                         [](const ::testing::TestParamInfo<DetectionMode>& info) {
                           std::string name = DetectionModeName(info.param);
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// A shared counter incremented under an exclusive lock must see every increment.
TEST_P(AllModesTest, LockProtectedCounter) {
  constexpr int kProcs = 4;
  constexpr int kIncrementsPerProc = 25;
  System system(MakeConfig(GetParam(), kProcs));
  int observed = -1;
  system.Run([&](Runtime& rt) {
    auto counter = MakeSharedArray<int64_t>(rt, 1);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {counter.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    for (int i = 0; i < kIncrementsPerProc; ++i) {
      rt.Acquire(lock);
      counter[0] = counter.Get(0) + 1;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
    if (rt.self() == 0) {
      // Node 0 must reacquire to observe the final value.
      rt.Acquire(lock);
      observed = static_cast<int>(counter.Get(0));
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(observed, kProcs * kIncrementsPerProc);
}

// Barrier-bound data written by each node must be visible everywhere after the barrier.
TEST_P(AllModesTest, BarrierPropagatesPartitionedWrites) {
  if (GetParam() == DetectionMode::kBlast) {
    GTEST_SKIP() << "Blast supports lock-bound data only";
  }
  constexpr int kProcs = 4;
  constexpr int kPerProc = 64;
  std::vector<int> sums(kProcs, -1);
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, kProcs * kPerProc);
    BarrierId barrier = rt.CreateBarrier();
    rt.BindBarrier(barrier, {data.WholeRange()});
    rt.BeginParallel();
    for (int i = 0; i < kPerProc; ++i) {
      data[rt.self() * kPerProc + i] = rt.self() * 1000 + i;
    }
    rt.BarrierWait(barrier);
    int sum = 0;
    for (size_t i = 0; i < data.size(); ++i) sum += data.Get(i);
    sums[rt.self()] = sum;
  });
  int expected = 0;
  for (int p = 0; p < kProcs; ++p) {
    for (int i = 0; i < kPerProc; ++i) expected += p * 1000 + i;
  }
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(sums[p], expected) << "node " << p;
  }
}

// The same lock handed around a ring: each node appends its id; order must be a valid
// interleaving with all contributions present.
TEST_P(AllModesTest, LockRingVisibility) {
  constexpr int kProcs = 3;
  constexpr int kRounds = 10;
  int final_count = -1;
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto log = MakeSharedArray<int32_t>(rt, kProcs * kRounds + 1);  // [0] = count
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {log.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BindBarrier(done, {});
    rt.BeginParallel();
    for (int r = 0; r < kRounds; ++r) {
      rt.Acquire(lock);
      int count = log.Get(0);
      log[1 + count] = rt.self();
      log[0] = count + 1;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
    if (rt.self() == 0) {
      rt.Acquire(lock);
      final_count = log.Get(0);
      std::vector<int> per_node(kProcs, 0);
      for (int i = 0; i < final_count; ++i) {
        per_node[log.Get(1 + i)]++;
      }
      for (int p = 0; p < kProcs; ++p) {
        EXPECT_EQ(per_node[p], kRounds) << "node " << p;
      }
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(final_count, kProcs * kRounds);
}

// Shared (read) mode: many concurrent readers see the writer's data.
TEST_P(AllModesTest, SharedReaders) {
  constexpr int kProcs = 4;
  std::vector<int64_t> seen(kProcs, -1);
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto value = MakeSharedArray<int64_t>(rt, 8);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {value.WholeRange()});
    BarrierId phase = rt.CreateBarrier();
    rt.BindBarrier(phase, {});
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock, LockMode::kExclusive);
      for (int i = 0; i < 8; ++i) value[i] = 41 + i;
      rt.Release(lock);
    }
    rt.BarrierWait(phase);
    rt.Acquire(lock, LockMode::kShared);
    int64_t sum = 0;
    for (int i = 0; i < 8; ++i) sum += value.Get(i);
    seen[rt.self()] = sum;
    rt.Release(lock);
    rt.BarrierWait(phase);
  });
  int64_t expected = 0;
  for (int i = 0; i < 8; ++i) expected += 41 + i;
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(seen[p], expected) << "node " << p;
  }
}

// Writers queued behind readers must wait, and their writes must be seen afterwards.
TEST_P(AllModesTest, WriterAfterReaders) {
  constexpr int kProcs = 4;
  constexpr int kRounds = 5;
  std::vector<int64_t> finals(kProcs, -1);
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto value = MakeSharedArray<int64_t>(rt, 1);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {value.WholeRange()});
    BarrierId phase = rt.CreateBarrier();
    rt.BindBarrier(phase, {});
    rt.BeginParallel();
    for (int r = 0; r < kRounds; ++r) {
      if (rt.self() == r % kProcs) {
        rt.Acquire(lock, LockMode::kExclusive);
        value[0] = value.Get(0) + 1;
        rt.Release(lock);
      } else {
        rt.Acquire(lock, LockMode::kShared);
        int64_t v = value.Get(0);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, kRounds);
        rt.Release(lock);
      }
      rt.BarrierWait(phase);
    }
    rt.Acquire(lock, LockMode::kShared);
    finals[rt.self()] = value.Get(0);
    rt.Release(lock);
    rt.BarrierWait(phase);
  });
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(finals[p], kRounds) << "node " << p;
  }
}

// Rebinding a lock (quicksort's pattern): the new binding's data must transfer.
TEST_P(AllModesTest, RebindTransfersNewRange) {
  constexpr int kProcs = 3;
  std::vector<int> results(kProcs, -1);
  System system(MakeConfig(GetParam(), kProcs));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 256);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.Range(0, 16)});
    BarrierId phase = rt.CreateBarrier();
    rt.BindBarrier(phase, {});
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      for (int i = 0; i < 16; ++i) data[i] = 7;
      // Rebind to a disjoint window and fill it too.
      rt.Rebind(lock, {data.Range(100, 32)});
      for (int i = 100; i < 132; ++i) data[i] = 9;
      rt.Release(lock);
    }
    rt.BarrierWait(phase);
    rt.Acquire(lock);
    int sum = 0;
    for (int i = 100; i < 132; ++i) sum += data.Get(i);
    results[rt.self()] = sum;
    rt.Release(lock);
    rt.BarrierWait(phase);
  });
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(results[p], 32 * 9) << "node " << p;
  }
}

// Local reacquire of a released lock must not generate messages.
TEST(RuntimeTest, LocalReacquireFastPath) {
  System system(MakeConfig(DetectionMode::kRt, 2));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 4);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    if (rt.self() == 0) {
      for (int i = 0; i < 10; ++i) {
        rt.Acquire(lock);
        data[0] = i;
        rt.Release(lock);
      }
    }
    rt.BarrierWait(done);
  });
  auto s0 = system.Snapshots()[0];
  EXPECT_EQ(s0.lock_acquires, 10u);
  EXPECT_EQ(s0.lock_acquires_local, 10u);
}

// Counters: RT sets dirtybits, VM takes page faults, exactly once per amortization window.
TEST(RuntimeTest, RtCountsDirtybitSets) {
  System system(MakeConfig(DetectionMode::kRt, 2));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 128, /*line_size=*/8);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      for (int i = 0; i < 128; ++i) data[i] = i;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(system.Snapshots()[0].dirtybits_set, 128u);
  EXPECT_EQ(system.Snapshots()[1].dirtybits_set, 0u);
}

TEST(RuntimeTest, VmSoftAmortizesFaults) {
  SystemConfig config = MakeConfig(DetectionMode::kVmSoft, 2);
  config.page_size = 4096;
  System system(config);
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 1024);  // 8 KB = 2 pages
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      for (int i = 0; i < 1024; ++i) data[i] = i;  // 1024 stores, 2 faults
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(system.Snapshots()[0].write_faults, 2u);
  EXPECT_EQ(system.Snapshots()[0].dirtybits_set, 0u);
}

TEST(RuntimeTest, VmSigsegvTakesRealFaults) {
  SystemConfig config = MakeConfig(DetectionMode::kVmSigsegv, 2);
  System system(config);
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 1024);  // 2 pages
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      for (int i = 0; i < 1024; ++i) data[i] = i;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(system.Snapshots()[0].write_faults, 2u);
}

// Writes during the initialization phase must not be treated as modifications.
TEST_P(AllModesTest, InitializationWritesAreNotModifications) {
  System system(MakeConfig(GetParam(), 2));
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 64);
    for (int i = 0; i < 64; ++i) data[i] = 100 + i;  // SPMD init, identical everywhere
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    rt.Acquire(lock);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(data.Get(i), 100 + i);
    }
    rt.Release(lock);
    rt.BarrierWait(done);
  });
  EXPECT_EQ(system.Snapshots()[0].dirtybits_set, 0u);
  EXPECT_EQ(system.Snapshots()[0].write_faults, 0u);
}

// Writes to private regions through the instrumented path hit the no-op template and are
// counted as misclassifications.
TEST(RuntimeTest, MisclassifiedPrivateWrites) {
  System system(MakeConfig(DetectionMode::kRt, 1));
  system.Run([&](Runtime& rt) {
    auto priv = MakePrivateArray<int32_t>(rt, 32);
    rt.BeginParallel();
    for (int i = 0; i < 32; ++i) priv[i] = i;
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(priv.Get(i), i);
    }
  });
  EXPECT_EQ(system.Snapshots()[0].dirtybits_misclassified, 32u);
  EXPECT_EQ(system.Snapshots()[0].dirtybits_set, 0u);
}

// --- Leaf-trimmed barrier releases -----------------------------------------------------

// Forwards to an in-process transport and keeps a copy of every BarrierRelease frame.
class ReleaseRecordingTransport : public Transport {
 public:
  struct Frame {
    NodeId src;
    NodeId dst;
    std::vector<std::byte> bytes;
  };

  explicit ReleaseRecordingTransport(NodeId num_nodes) : inner_(num_nodes) {}

  NodeId NumNodes() const override { return inner_.NumNodes(); }
  void Send(NodeId src, NodeId dst, std::vector<std::byte> payload) override {
    MsgType type;
    if (PeekType(payload, &type) && type == MsgType::kBarrierRelease) {
      std::lock_guard<std::mutex> lk(mu_);
      releases_.push_back(Frame{src, dst, payload});
    }
    inner_.Send(src, dst, std::move(payload));
  }
  bool Recv(NodeId self, Packet* out) override { return inner_.Recv(self, out); }
  void Shutdown() override { inner_.Shutdown(); }
  uint64_t BytesSent() const override { return inner_.BytesSent(); }
  uint64_t PacketsSent() const override { return inner_.PacketsSent(); }

  std::vector<Frame> Releases() {
    std::lock_guard<std::mutex> lk(mu_);
    return releases_;
  }

 private:
  InProcTransport inner_;
  std::mutex mu_;
  std::vector<Frame> releases_;
};

struct TreeCase {
  uint16_t procs;
  uint32_t fanout;
  DetectionMode mode;
  const char* name;
};

// Prints the case name, so test discovery names it the same way every run.
void PrintTo(const TreeCase& c, std::ostream* os) { *os << c.name; }

class LeafTrimTest : public ::testing::TestWithParam<TreeCase> {};

INSTANTIATE_TEST_SUITE_P(Trees, LeafTrimTest,
                         ::testing::Values(TreeCase{3, 4, DetectionMode::kVmSoft, "n3_f4_vm"},
                                           TreeCase{4, 4, DetectionMode::kRt, "n4_f4_rt"},
                                           TreeCase{4, 4, DetectionMode::kVmSoft, "n4_f4_vm"},
                                           TreeCase{7, 2, DetectionMode::kVmSoft, "n7_f2_vm"},
                                           TreeCase{7, 2, DetectionMode::kRt, "n7_f2_rt"}),
                         [](const ::testing::TestParamInfo<TreeCase>& info) {
                           return std::string(info.param.name);
                         });

// Every node's cached release equals the root's merge; a leaf's frame lacks exactly its own
// chunk (byte for byte the root's merge encoded without it); an internal child's frame
// carries every chunk.
TEST_P(LeafTrimTest, LeafFramesOmitOwnChunkAndEveryCacheEqualsTheRootMerge) {
  const TreeCase tc = GetParam();
  constexpr int kPerProc = 2048;  // int32s: two 4 KB pages per node
  constexpr int kRounds = 3;
  SystemConfig config = MakeConfig(tc.mode, tc.procs);
  config.barrier_fanout = tc.fanout;
  ReleaseRecordingTransport transport(tc.procs);
  std::vector<std::unique_ptr<Runtime>> runtimes;
  for (NodeId i = 0; i < tc.procs; ++i) {
    runtimes.push_back(std::make_unique<Runtime>(config, i, &transport));
  }
  BarrierId user_barrier = 0;
  std::vector<int> mismatches(tc.procs, 0);
  {
    std::vector<std::thread> comm;
    for (auto& rt : runtimes) comm.emplace_back([r = rt.get()] { r->CommLoop(); });
    std::vector<std::thread> apps;
    for (auto& rt : runtimes) {
      apps.emplace_back([&, r = rt.get()] {
        auto data = MakeSharedArray<int32_t>(*r, static_cast<size_t>(tc.procs) * kPerProc);
        const BarrierId barrier = r->CreateBarrier();
        if (r->self() == 0) user_barrier = barrier;  // the same id on every node
        r->BindBarrier(barrier, {data.WholeRange()});
        r->BeginParallel();
        for (int round = 1; round <= kRounds; ++round) {
          for (int i = 0; i < kPerProc; i += 3) {
            data[r->self() * kPerProc + i] = round * 100000 + r->self() * 1000 + i;
          }
          r->BarrierWait(barrier);
          for (NodeId p = 0; p < tc.procs; ++p) {
            for (int i = 0; i < kPerProc; i += 3) {
              if (data.Get(p * kPerProc + i) != round * 100000 + p * 1000 + i) {
                ++mismatches[r->self()];
              }
            }
          }
          r->BarrierWait(barrier);  // nobody writes the next round before all read
        }
        r->FinishParallel();
      });
    }
    for (auto& t : apps) t.join();
    for (auto& rt : runtimes) rt->StopReliability();
    transport.Shutdown();
    for (auto& t : comm) t.join();
  }
  for (NodeId n = 0; n < tc.procs; ++n) EXPECT_EQ(mismatches[n], 0) << "node " << n;

  const auto root_merge = runtimes[0]->DebugLastRelease(user_barrier);
  ASSERT_TRUE(root_merge.has_value());
  ASSERT_EQ(root_merge->chunks.size(), tc.procs);
  for (NodeId n = 0; n < tc.procs; ++n) {
    EXPECT_EQ(root_merge->chunks[n].node, n) << "the merge is in origin order";
    const auto cached = runtimes[n]->DebugLastRelease(user_barrier);
    ASSERT_TRUE(cached.has_value()) << "node " << n;
    EXPECT_EQ(*cached, *root_merge) << "node " << n << "'s cached release";
  }

  auto is_leaf = [&](NodeId n) { return static_cast<uint32_t>(n) * tc.fanout + 1 >= tc.procs; };
  int leaf_frames = 0;
  int internal_frames = 0;
  for (const auto& frame : transport.Releases()) {
    BarrierReleaseMsg msg;
    ASSERT_TRUE(Decode(frame.bytes, &msg));
    ASSERT_EQ(frame.src, (frame.dst - 1) / tc.fanout) << "releases follow the static tree";
    const bool has_own = std::any_of(msg.chunks.begin(), msg.chunks.end(),
                                     [&](const BarrierChunk& c) { return c.node == frame.dst; });
    if (is_leaf(frame.dst)) {
      ++leaf_frames;
      EXPECT_EQ(msg.omitted_chunk, frame.dst);
      EXPECT_FALSE(has_own) << "leaf " << frame.dst << " got its own chunk back";
      EXPECT_EQ(msg.chunks.size(), tc.procs - 1u);
    } else {
      ++internal_frames;
      EXPECT_EQ(msg.omitted_chunk, kNoNode);
      EXPECT_EQ(msg.chunks.size(), tc.procs) << "internal child " << frame.dst;
    }
    if (msg.barrier == user_barrier && msg.round == root_merge->round) {
      // The wire bytes are the root's merge encoded without (only) a leaf's own chunk.
      BarrierReleaseMsg expected = *root_merge;
      expected.omitted_chunk = is_leaf(frame.dst) ? frame.dst : kNoNode;
      EXPECT_EQ(frame.bytes, Encode(expected)) << "frame to " << frame.dst;
      if (is_leaf(frame.dst)) {
        EXPECT_LT(frame.bytes.size(), Encode(*root_merge).size());
      }
    }
  }
  EXPECT_GT(leaf_frames, 0);
  if (tc.procs > tc.fanout + 1) {
    EXPECT_GT(internal_frames, 0);
  }
}

}  // namespace
}  // namespace midway
