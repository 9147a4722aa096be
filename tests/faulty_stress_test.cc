// Lossy-network survival: the whole application suite must complete and verify over a
// transport that drops 10% and duplicates 5% of packets (FaultProfile::Lossy), with every
// invariant checker armed — the exactly-once apply ledger (RT), incarnation monotonicity
// (VM), and the apps' own golden-execution verification. 100 distinct seeds across the five
// apps; every failure message names the seed that reproduces it (see docs/TESTING.md).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/net/faulty_transport.h"

namespace midway {
namespace {

// Fast retransmission timeouts keep the suite quick: at 10% drop an in-process "RTT" is
// microseconds, so a 1ms initial RTO dwarfs it while staying far from spurious.
SystemConfig FaultyConfig(DetectionMode mode, uint64_t seed) {
  SystemConfig config;
  config.mode = mode;
  config.num_procs = 3;
  config.transport = TransportKind::kFaulty;
  config.fault = FaultProfile::Lossy(seed);
  config.check_invariants = true;
  config.invariant_tag = "seed=" + std::to_string(seed);
  config.rel_initial_rto_us = 1'000;
  config.rel_max_rto_us = 20'000;
  return config;
}

void ExpectClean(const AppReport& report, uint64_t seed) {
  EXPECT_TRUE(report.verified) << report.name << " diverged from the sequential golden "
                               << "execution under fault seed " << seed
                               << " (reproduce: FaultProfile::Lossy(" << seed << "))";
  EXPECT_EQ(report.invariants.exactly_once_violations, 0u)
      << report.name << " exactly-once violation under fault seed " << seed << ": "
      << report.invariants.first_violation;
  EXPECT_EQ(report.invariants.incarnation_violations, 0u)
      << report.name << " incarnation regression under fault seed " << seed << ": "
      << report.invariants.first_violation;
}

struct StressCase {
  const char* app;
  DetectionMode mode;
  uint64_t seed;
};

class FaultyAppStressTest : public ::testing::TestWithParam<StressCase> {};

// 5 apps x 20 seeds = 100 distinct seeds, split between an RT mode (arming the
// exactly-once ledger) and a VM mode (arming the incarnation checker).
INSTANTIATE_TEST_SUITE_P(
    LossySeeds, FaultyAppStressTest,
    ::testing::ValuesIn([] {
      std::vector<StressCase> cases;
      const struct {
        const char* app;
        uint64_t base;
      } apps[] = {{"water", 1000}, {"quicksort", 2000}, {"matmul", 3000},
                  {"sor", 4000},   {"cholesky", 5000}};
      for (const auto& a : apps) {
        for (uint64_t i = 0; i < 20; ++i) {
          const DetectionMode mode = i < 10 ? DetectionMode::kRt : DetectionMode::kVmSoft;
          cases.push_back({a.app, mode, a.base + i});
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<StressCase>& info) {
      std::string name = std::string(info.param.app) + "_" +
                         DetectionModeName(info.param.mode) + "_s" +
                         std::to_string(info.param.seed);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(FaultyAppStressTest, CompletesAndVerifiesOverLossyNetwork) {
  const StressCase& c = GetParam();
  const SystemConfig config = FaultyConfig(c.mode, c.seed);
  AppReport report;
  // Small parameters: the point is protocol traffic under loss, not compute.
  if (std::string(c.app) == "water") {
    report = RunWater(config, WaterParams{24, 2, 42});
  } else if (std::string(c.app) == "quicksort") {
    report = RunQuicksort(config, QuicksortParams{2'000, 256, 128, 42});
  } else if (std::string(c.app) == "matmul") {
    report = RunMatmul(config, MatmulParams{36, 42});
  } else if (std::string(c.app) == "sor") {
    report = RunSor(config, SorParams{32, 3, 42});
  } else {
    report = RunCholesky(config, CholeskyParams{8, 42});
  }
  ExpectClean(report, c.seed);
  // The profile really was lossy and the reliability layer really did work.
  EXPECT_GT(report.per_proc.rel_data_frames, 0u);
}

// --- Post-barrier golden oracle ------------------------------------------------------------
//
// A barrier-iterated workload where every node mutates its slice with a position- and
// round-dependent function, then — after the barrier — byte-compares the ENTIRE bound region
// (all slices, including every other node's) against a single-threaded golden execution.
// A lost or misordered update that leaked past the reliability layer shows up as a byte
// mismatch at a named (seed, round, index).

class BarrierGoldenOracleTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, BarrierGoldenOracleTest,
                         ::testing::Range(uint64_t{6000}, uint64_t{6010}));

TEST_P(BarrierGoldenOracleTest, PostBarrierStateMatchesSequentialGolden) {
  const uint64_t seed = GetParam();
  for (DetectionMode mode : {DetectionMode::kRt, DetectionMode::kVmSoft}) {
    SystemConfig config = FaultyConfig(mode, seed);
    constexpr int kN = 60;          // divisible by num_procs
    constexpr int kRounds = 5;
    const int procs = config.num_procs;
    std::vector<std::string> mismatches(procs);

    System system(config);
    system.Run([&](Runtime& rt) {
      auto data = MakeSharedArray<int64_t>(rt, kN);
      BarrierId step = rt.CreateBarrier();
      rt.BindBarrier(step, {data.WholeRange()});
      rt.BeginParallel();

      // Single-threaded golden execution, maintained identically on every node.
      std::vector<int64_t> golden(kN, 0);
      const int chunk = kN / procs;
      for (int round = 0; round < kRounds; ++round) {
        const int begin = rt.self() * chunk;
        for (int i = begin; i < begin + chunk; ++i) {
          // Non-commutative in (round, i): any stale value poisons later rounds visibly.
          data[i] = data.Get(i) * 3 + i + round;
        }
        rt.BarrierWait(step);
        for (int i = 0; i < kN; ++i) {
          golden[i] = golden[i] * 3 + i + round;
        }
        // Post-barrier oracle: the full bound region, byte for byte.
        for (int i = 0; i < kN && mismatches[rt.self()].empty(); ++i) {
          if (data.Get(i) != golden[i]) {
            mismatches[rt.self()] =
                "node " + std::to_string(rt.self()) + " round " + std::to_string(round) +
                " index " + std::to_string(i) + ": got " + std::to_string(data.Get(i)) +
                " want " + std::to_string(golden[i]) + " (fault seed " +
                std::to_string(seed) + ")";
          }
        }
        rt.BarrierWait(step);  // nobody starts the next round before everyone checked
      }
    });

    for (const std::string& mismatch : mismatches) {
      EXPECT_TRUE(mismatch.empty()) << mismatch;
    }
    const auto invariants = system.Invariants();
    EXPECT_EQ(invariants.exactly_once_violations + invariants.incarnation_violations, 0u)
        << invariants.first_violation;
  }
}

// --- Transient partition survival ----------------------------------------------------------

class PartitionSurvivalTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionSurvivalTest,
                         ::testing::Range(uint64_t{7000}, uint64_t{7008}));

TEST_P(PartitionSurvivalTest, ContendedCounterSurvivesPartitions) {
  const uint64_t seed = GetParam();
  SystemConfig config;
  config.num_procs = 4;
  config.transport = TransportKind::kFaulty;
  config.fault = FaultProfile::Lossy(seed);
  config.fault.partition_rate = 0.01;
  config.fault.partition_packets = 24;
  config.check_invariants = true;
  config.invariant_tag = "seed=" + std::to_string(seed);
  config.rel_initial_rto_us = 1'000;
  config.rel_max_rto_us = 20'000;

  int observed = -1;
  std::atomic<int> regressions{0};
  System system(config);
  system.Run([&](Runtime& rt) {
    auto counter = MakeSharedArray<int64_t>(rt, 1);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {counter.WholeRange()});
    BarrierId done = rt.CreateBarrier();
    rt.BeginParallel();
    // Every third acquire is shared, so exclusive and shared holders contend for one lock.
    // Shared holders only read; no node may ever see the counter go backwards.
    int64_t last_seen = 0;
    for (int i = 0; i < 18; ++i) {
      const bool shared = i % 3 == 2;
      rt.Acquire(lock, shared ? LockMode::kShared : LockMode::kExclusive);
      const int64_t seen = counter.Get(0);
      if (seen < last_seen) regressions.fetch_add(1);
      last_seen = seen;
      if (!shared) counter[0] = ++last_seen;
      rt.Release(lock);
    }
    rt.BarrierWait(done);
    if (rt.self() == 0) {
      rt.Acquire(lock);
      observed = static_cast<int>(counter.Get(0));
      rt.Release(lock);
    }
    rt.BarrierWait(done);
  });
  EXPECT_EQ(observed, 4 * 12) << "lost increments under partition seed " << seed;
  EXPECT_EQ(regressions.load(), 0) << "a read went backwards under partition seed " << seed;
  const auto invariants = system.Invariants();
  EXPECT_EQ(invariants.exactly_once_violations + invariants.incarnation_violations, 0u)
      << invariants.first_violation;
  const auto* faulty = dynamic_cast<FaultyTransport*>(&system.transport());
  ASSERT_NE(faulty, nullptr);
  // The run should have actually exercised loss (partitions are probabilistic per seed).
  EXPECT_GT(faulty->Stats().dropped, 0u) << "seed " << seed;
}

}  // namespace
}  // namespace midway
