// Membership chaos: the wrongly-buried protest protocol under scripted heartbeat
// suppression and asymmetric partitions at real scale (16/32 nodes). Where
// crash_stress_test.cc proves survivors outlive a node that actually died, this suite
// proves the opposite direction: a node the cluster *wrongly* declares dead always fights
// its way back in — no live node is ever permanently stranded.
//
// The golden suite arms its chaos schedule only after a startup rendezvous
// (FaultProfile::chaos_deferred + DebugArmChaos) and heals it the moment the victim has
// observed its own burial (DebugHealChaos): what is suppressed is scripted and seeded, how
// long is bound to the condition being manufactured, so the forced false death commits on
// any host no matter how slowly an oversubscribed scheduler lets the detector convict. The
// app suite keeps plain wall-clock windows, so exactly when (and whether) a burial commits
// relative to application progress varies run to run; all assertions are chosen to be
// timing-independent:
//   - the liveness invariant (a node that never crashed is a member of the final epoch's
//     commit set) must hold for every seed and schedule;
//   - exactly-once and incarnation invariants stay zero;
//   - barrier-bound data matches the sequential golden execution on every node (barrier
//     contributions are replicated at release and never lease-rolled-back, so they are
//     exact under arbitrary burial timing);
//   - when the schedule provably forced a committed false death (the victim observed its
//     own burial), the resurrection counters must show the full protest cycle.
//
// Lock-bound data is exact only when no survivor ran a critical section between the
// rollback and the rejoin (the wrongly-buried rescue election, see runtime_recovery.cc);
// ZombieLockDataSurvivesForcedBurialAt16Nodes pins the burial to a quiescent region to
// assert that exactness deterministically at scale.
//
// Seed counts default small so `ctest -L stress` stays moderate; CI scales them with
// MIDWAY_STRESS_SEEDS (see docs/TESTING.md for reproducing a failing seed locally).
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/apps.h"
#include "src/net/faulty_transport.h"

namespace midway {
namespace {

uint64_t StressSeeds(uint64_t def) {
  const char* env = std::getenv("MIDWAY_STRESS_SEEDS");
  if (env == nullptr) return def;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<uint64_t>(v) : def;
}

// Clean network (no probabilistic faults): every false death here is manufactured by the
// chaos schedule, so a failing seed reproduces from the schedule alone. Heartbeat cadence
// is scaled up slightly at high node counts to keep the liveness-traffic load sane.
SystemConfig ChaosConfig(NodeId procs, DetectionMode mode, uint64_t seed) {
  SystemConfig config;
  config.mode = mode;
  config.num_procs = procs;
  config.transport = TransportKind::kFaulty;
  config.fault.seed = seed;
  config.check_invariants = true;
  config.invariant_tag = "seed=" + std::to_string(seed);
  config.enable_failure_detection = true;
  // Generous intervals and thresholds: chaos runs pack procs*3 threads onto whatever cores
  // the host has, and scheduler starvation must not bury anyone the schedule didn't name.
  // The scripted window is sized in multiples of hb_interval_us, so the victim's burial is
  // forced regardless; these knobs only suppress collateral suspicion.
  config.hb_interval_us = procs >= 32 ? 8'000 : 4'000;
  config.hb_floor_us = 2'000;
  config.hb_suspect_mult = 8;
  config.hb_dead_mult = 16;
  // A peer never heard from is not convictable: on a loaded host, spawning procs*3 threads
  // can outlast any fixed pre-contact threshold, and a cluster that buries itself at boot
  // tests nothing. Once contact is made the RTT-adaptive window takes over.
  config.hb_startup_grace_mult = 0;
  config.rel_initial_rto_us = 1'000;
  config.rel_max_rto_us = 20'000;
  config.checkpointing = true;
  config.barrier_policy = BarrierPolicy::kWaitForever;  // nobody really dies here
  return config;
}

void ExpectChaosInvariants(System& system, uint64_t seed) {
  const Runtime::InvariantReport inv = system.Invariants();
  EXPECT_EQ(inv.exactly_once_violations, 0u)
      << "exactly-once violation under chaos seed " << seed << ": " << inv.first_violation;
  EXPECT_EQ(inv.incarnation_violations, 0u)
      << "incarnation regression under chaos seed " << seed << ": " << inv.first_violation;
  EXPECT_EQ(inv.liveness_violations, 0u)
      << "liveness violation under chaos seed " << seed << ": " << inv.first_violation;
}

// --- Golden oracle under scripted false death at 16/32 nodes -------------------------------
//
// Barrier-iterated workload with a position- and round-dependent update. A chaos window
// suppresses the victim's liveness traffic (or everything it sends) long enough for the
// cluster to commit its death; the victim spins mid-run until it has observed its own
// burial, so every run provably exercises the committed-false-death path. The window heals
// before a settle phase, the protest lands, and the run must finish with every slice exact
// and the victim a member of the final epoch.

struct ChaosGoldenCase {
  NodeId procs;
  ChaosEvent::Kind kind;
  uint64_t seed;
};

class MembershipChaosGoldenTest : public ::testing::TestWithParam<ChaosGoldenCase> {};

INSTANTIATE_TEST_SUITE_P(
    ChaosSchedules, MembershipChaosGoldenTest,
    ::testing::ValuesIn([] {
      std::vector<ChaosGoldenCase> cases;
      const uint64_t seeds = StressSeeds(2);
      const struct {
        NodeId procs;
        ChaosEvent::Kind kind;
        uint64_t base;
      } grids[] = {
          {16, ChaosEvent::Kind::kMuteHeartbeats, 51000},
          {16, ChaosEvent::Kind::kIsolateOutbound, 52000},
          {32, ChaosEvent::Kind::kMuteHeartbeats, 53000},
          {32, ChaosEvent::Kind::kIsolateOutbound, 54000},
      };
      for (const auto& g : grids) {
        for (uint64_t i = 0; i < seeds; ++i) {
          cases.push_back({g.procs, g.kind, g.base + i});
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<ChaosGoldenCase>& info) {
      const char* kind = info.param.kind == ChaosEvent::Kind::kMuteHeartbeats
                             ? "mute"
                             : "isolate_out";
      return "n" + std::to_string(info.param.procs) + "_" + kind + "_s" +
             std::to_string(info.param.seed);
    });

TEST_P(MembershipChaosGoldenTest, EverySliceExactAndZombieResurrected) {
  const ChaosGoldenCase& c = GetParam();
  SystemConfig config = ChaosConfig(c.procs, DetectionMode::kRt, c.seed);
  const int procs = config.num_procs;
  // Never node 0 (the lowest live id roots the barrier tree, and keeping the root stable
  // isolates the burial under test from root failover); otherwise seed-chosen.
  const NodeId victim = static_cast<NodeId>(1 + c.seed % (procs - 1));
  // One suppression window, effectively unbounded: it opens the moment the schedule is
  // armed (after the rendezvous below) and is healed by the victim itself once it has
  // observed its own burial — the window lasts exactly as long as forcing the false death
  // takes on this host, no more.
  config.fault.chaos_deferred = true;
  config.fault.chaos = {ChaosEvent{c.kind, victim, 0, uint64_t{600'000'000}}};

  constexpr int kRounds = 3;
  const int kN = procs * 4;
  const int chunk = kN / procs;
  std::vector<std::string> mismatches(procs);
  System system(config);
  auto* chaos_net = dynamic_cast<FaultyTransport*>(&system.transport());
  ASSERT_NE(chaos_net, nullptr);
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, kN);
    BarrierId step = rt.CreateBarrier();
    rt.BindBarrier(step, {data.WholeRange()});
    rt.BeginParallel();
    // Startup rendezvous: every node is up and has made first contact before the schedule
    // arms, so the only node the chaos can bury is the one it names.
    rt.BarrierWait(step);
    if (rt.self() == 0) chaos_net->DebugArmChaos();
    std::vector<int64_t> golden(kN, 0);
    for (int round = 0; round < kRounds; ++round) {
      const int begin = rt.self() * chunk;
      for (int i = begin; i < begin + chunk; ++i) {
        data[i] = data.Get(i) * 3 + i + round;
      }
      if (round == 0 && rt.self() == victim) {
        // Hold the run open — before entering the barrier, so this works under full
        // outbound isolation too — until the cluster has committed our death: the
        // incarnation bump is the sticky record of the burial (the
        // member->protesting->member cycle itself can complete between two polls). Then
        // heal; the BarrierWait below parks until our protest's rejoin epoch commits.
        while (rt.incarnation() == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        chaos_net->DebugHealChaos();
      }
      rt.BarrierWait(step);
      for (int i = 0; i < kN; ++i) golden[i] = golden[i] * 3 + i + round;
      for (int i = 0; i < kN && mismatches[rt.self()].empty(); ++i) {
        if (data.Get(i) != golden[i]) {
          mismatches[rt.self()] =
              "node " + std::to_string(rt.self()) + " round " + std::to_string(round) +
              " index " + std::to_string(i) + ": got " + std::to_string(data.Get(i)) +
              " want " + std::to_string(golden[i]) + " (chaos seed " +
              std::to_string(c.seed) + ", victim " + std::to_string(victim) + ")";
        }
      }
      rt.BarrierWait(step);
    }
  });

  for (const std::string& mismatch : mismatches) {
    EXPECT_TRUE(mismatch.empty()) << mismatch;
  }
  EXPECT_GE(system.runtime(victim).incarnation(), 1u);
  EXPECT_EQ(system.runtime(victim).DebugSelfState(), Runtime::SelfState::kMember);
  const CounterSnapshot total = system.Total();
  EXPECT_GE(total.false_death_commits, 1u)
      << "chaos seed " << c.seed << ": the scripted window never forced a burial";
  EXPECT_GE(total.protests_sent, 1u);
  EXPECT_GE(total.resurrections, 1u);
  ExpectChaosInvariants(system, c.seed);
}

// Spins until `rt`, muted, has been buried and readmitted: its incarnation moves past 0.
// Bounded: a burial that never commits, or never reaches the victim, fails the test here
// with the victim's view after 30 s instead of hanging every survivor's barrier until ctest
// kills the run.
void AwaitOwnBurial(Runtime& rt, uint64_t seed) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (rt.incarnation() == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::string membership;
      for (uint8_t dead : rt.DebugMembership()) membership += dead ? 'D' : '.';
      ADD_FAILURE() << "chaos seed " << seed << ": victim " << rt.self()
                    << " still at incarnation 0 after 30 s muted (epoch " << rt.DebugEpoch()
                    << ", self state " << static_cast<int>(rt.DebugSelfState())
                    << ", membership " << membership << ")";
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

// --- Lock-bound exactness under a forced burial at 16 nodes --------------------------------
//
// Every node increments a lock-guarded counter once per round. The burial is pinned to a
// quiescent region — the victim suppresses its own liveness traffic between two barriers,
// where every peer is blocked waiting on it — so no survivor can run a critical section
// between the rollback and the rejoin. The rescue election must hand the lock back to the
// zombie and its released-but-unshipped increment must survive: the final count is exact.

class MembershipChaosLockTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipChaosLockTest,
                         ::testing::Range(uint64_t{61000},
                                          uint64_t{61000} + StressSeeds(2)));

TEST_P(MembershipChaosLockTest, ZombieLockDataSurvivesForcedBurialAt16Nodes) {
  const uint64_t seed = GetParam();
  SystemConfig config = ChaosConfig(16, DetectionMode::kRt, seed);
  const int procs = config.num_procs;
  const NodeId victim = static_cast<NodeId>(1 + seed % (procs - 1));
  constexpr int64_t kRounds = 2;
  int64_t final_value = -1;
  System system(config);
  system.Run([&](Runtime& rt) {
    auto counter = MakeSharedArray<int64_t>(rt, 1);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {counter.WholeRange()});
    BarrierId step = rt.CreateBarrier();
    rt.BeginParallel();
    for (int64_t round = 0; round < kRounds; ++round) {
      rt.Acquire(lock);
      counter[0] = counter.Get(0) + rt.self() + 1;
      rt.Release(lock);
      rt.BarrierWait(step);
      if (round == 0 && rt.self() == victim) {
        rt.DebugMuteHeartbeats(true);
        AwaitOwnBurial(rt, seed);
        rt.DebugMuteHeartbeats(false);
      }
      rt.BarrierWait(step);
    }
    if (rt.self() == 0) {
      rt.Acquire(lock);
      final_value = counter.Get(0);
      rt.Release(lock);
    }
    rt.BarrierWait(step);
  });

  // Sum over nodes of (self + 1) per round: procs * (procs + 1) / 2 each round.
  EXPECT_EQ(final_value, kRounds * procs * (procs + 1) / 2)
      << "zombie's released increment was lost (chaos seed " << seed << ", victim "
      << victim << ")";
  EXPECT_GE(system.runtime(victim).incarnation(), 1u);
  const CounterSnapshot total = system.Total();
  EXPECT_GE(total.false_death_commits, 1u);
  EXPECT_GE(total.resurrections, 1u);
  ExpectChaosInvariants(system, seed);
}

// --- Barrier-tree chaos grid: internal-node death and leaf burial at 16/32 nodes -----------
//
// The k-ary barrier tree adds two failure shapes the star never had, and this grid drives
// both in one run:
//   1. An INTERNAL tree node (node 1: children 5..8 at fanout 4) crashes mid-round, taking
//      with it the child chunks it had accumulated but not yet seen released. Its death
//      commit must re-home the orphaned subtree to the grandparent (the root) and re-send
//      the orphans' pending chunks (barrier_reparent_resends); its checkpoint restart must
//      re-attach at the same tree position and complete the interrupted round exactly.
//      An outbound-isolation window — armed by the restarted incarnation before its first
//      packet, healed once it has observed its own burial — guarantees the death actually
//      commits instead of the restart winning the race, on any host.
//   2. A LEAF is buried on pure false suspicion (muted heartbeats) and must protest its
//      way back in before the round can complete (kWaitForever).
// Every slice verifies against the sequential golden execution on every node, every round.

class BarrierTreeChaosTest : public ::testing::TestWithParam<ChaosGoldenCase> {};

INSTANTIATE_TEST_SUITE_P(
    ChaosSchedules, BarrierTreeChaosTest,
    ::testing::ValuesIn([] {
      std::vector<ChaosGoldenCase> cases;
      const uint64_t seeds = StressSeeds(2);
      for (NodeId procs : {NodeId{16}, NodeId{32}}) {
        for (uint64_t i = 0; i < seeds; ++i) {
          cases.push_back({procs, ChaosEvent::Kind::kIsolateOutbound,
                           (procs == 16 ? 62000 : 63000) + i});
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<ChaosGoldenCase>& info) {
      return "n" + std::to_string(info.param.procs) + "_s" +
             std::to_string(info.param.seed);
    });

TEST_P(BarrierTreeChaosTest, InternalNodeDeathAndLeafBurialKeepEverySliceExact) {
  const ChaosGoldenCase& c = GetParam();
  SystemConfig config = ChaosConfig(c.procs, DetectionMode::kRt, c.seed);
  const int procs = config.num_procs;
  constexpr NodeId kInternal = 1;  // fanout 4: children 5..8 at both node counts
  // A leaf at either node count (parent(i) = (i-1)/4, so ids >= 8 have no children at 32).
  const NodeId leaf = static_cast<NodeId>(8 + c.seed % (procs - 8));
  // Node 1's sync points: 1 BeginParallel, 2 round 0, 3 round 1 entry -> crash + restart,
  // after its children have already shipped it their round-1 chunks.
  config.fault.crashes = {CrashEvent{kInternal, 3, true}};
  config.fault.chaos_deferred = true;
  config.fault.chaos = {ChaosEvent{ChaosEvent::Kind::kIsolateOutbound, kInternal, 0,
                                   uint64_t{600'000'000}}};

  constexpr int kRounds = 4;
  const int kN = procs * 2;
  const int chunk = 2;
  std::vector<std::string> mismatches(procs);
  System system(config);
  auto* chaos_net = dynamic_cast<FaultyTransport*>(&system.transport());
  ASSERT_NE(chaos_net, nullptr);
  system.Run([&](Runtime& rt) {
    const bool reborn = rt.self() == kInternal && rt.recovered();
    if (reborn) {
      // Silence the fresh incarnation before BeginParallel can start its detector or
      // announce the rejoin: the predecessor's silence then ripens into a committed death
      // and the children's chunks re-home to the grandparent while we are provably out.
      chaos_net->DebugArmChaos();
    }
    auto data = MakeSharedArray<int64_t>(rt, kN);
    BarrierId step = rt.CreateBarrier();
    rt.BindBarrier(step, {data.WholeRange()});
    if (reborn) {
      // Wait out our own burial (the protest state is sticky while isolated — the protest
      // bursts themselves are being dropped), then heal so it can land.
      while (rt.DebugSelfState() == Runtime::SelfState::kMember) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      chaos_net->DebugHealChaos();
    }
    rt.BeginParallel();
    const int start_round = reborn ? static_cast<int>(rt.DebugBarrier(step).round) : 0;
    std::vector<int64_t> golden(kN, 0);
    for (int r = 0; r < start_round; ++r) {
      for (int i = 0; i < kN; ++i) golden[i] = golden[i] * 3 + i + r;
    }
    for (int round = start_round; round < kRounds; ++round) {
      if (round == 2 && rt.self() == leaf && rt.incarnation() == 0) {
        // False burial of a leaf: fall silent while healthy, wait for the cluster to
        // commit our death (the incarnation bump is its sticky trace), then rejoin via
        // protest before contributing this round.
        rt.DebugMuteHeartbeats(true);
        AwaitOwnBurial(rt, c.seed);
        rt.DebugMuteHeartbeats(false);
      }
      const int begin = rt.self() * chunk;
      for (int i = begin; i < begin + chunk; ++i) {
        data[i] = data.Get(i) * 3 + i + round;
      }
      rt.BarrierWait(step);
      for (int i = 0; i < kN; ++i) golden[i] = golden[i] * 3 + i + round;
      for (int i = 0; i < kN && mismatches[rt.self()].empty(); ++i) {
        if (data.Get(i) != golden[i]) {
          mismatches[rt.self()] =
              "node " + std::to_string(rt.self()) + " inc " +
              std::to_string(rt.incarnation()) + " round " + std::to_string(round) +
              " index " + std::to_string(i) + ": got " + std::to_string(data.Get(i)) +
              " want " + std::to_string(golden[i]) + " (chaos seed " +
              std::to_string(c.seed) + ", leaf " + std::to_string(leaf) + ")";
        }
      }
    }
  });

  for (const std::string& mismatch : mismatches) {
    EXPECT_TRUE(mismatch.empty()) << mismatch;
  }
  EXPECT_TRUE(system.runtime(kInternal).recovered());
  EXPECT_GE(system.runtime(kInternal).incarnation(), 1u);
  EXPECT_GE(system.runtime(leaf).incarnation(), 1u);
  EXPECT_EQ(system.runtime(leaf).DebugSelfState(), Runtime::SelfState::kMember);
  const CounterSnapshot total = system.Total();
  EXPECT_GE(total.barrier_reparent_resends, 1u)
      << "chaos seed " << c.seed
      << ": the orphaned subtree never re-sent its chunks after re-homing";
  EXPECT_GE(total.false_death_commits, 1u);
  EXPECT_GE(total.protests_sent, 1u);
  EXPECT_GE(total.resurrections, 1u);
  EXPECT_GE(total.recovery_epochs, 3u);
  ExpectChaosInvariants(system, c.seed);
}

// --- Application suite under scripted chaos ------------------------------------------------
//
// The five paper applications under a heartbeat-suppression window sized past the death
// threshold. Whether a burial actually commits inside an app run depends on how long the
// app takes relative to the window (small apps can finish first), so the false-death
// counters are not asserted here — what is asserted, for every app and seed, is the
// robustness contract: the run terminates, verifies against its sequential golden
// execution, and ends with zero exactly-once, incarnation, and liveness violations.
// (Verification holds because burials here are pure false positives: the victim's data
// and traffic survive, and any rolled-back lock is either rescued at rejoin or re-served
// from the victim after exoneration.)

AppReport RunSmall(const std::string& app, const SystemConfig& config) {
  if (app == "water") return RunWater(config, WaterParams{24, 2, 42});
  if (app == "quicksort") return RunQuicksort(config, QuicksortParams{2'000, 256, 128, 42});
  if (app == "matmul") return RunMatmul(config, MatmulParams{36, 42});
  if (app == "sor") return RunSor(config, SorParams{32, 3, 42});
  return RunCholesky(config, CholeskyParams{8, 42});
}

struct ChaosAppCase {
  const char* app;
  DetectionMode mode;
  uint64_t seed;
};

class MembershipChaosAppTest : public ::testing::TestWithParam<ChaosAppCase> {};

INSTANTIATE_TEST_SUITE_P(
    ChaosSchedules, MembershipChaosAppTest,
    ::testing::ValuesIn([] {
      std::vector<ChaosAppCase> cases;
      const uint64_t seeds = StressSeeds(2);
      const struct {
        const char* app;
        uint64_t base;
      } apps[] = {{"water", 71000},
                  {"quicksort", 72000},
                  {"matmul", 73000},
                  {"sor", 74000},
                  {"cholesky", 75000}};
      for (const auto& a : apps) {
        for (uint64_t i = 0; i < seeds; ++i) {
          const DetectionMode mode = i % 2 == 0 ? DetectionMode::kRt : DetectionMode::kVmSoft;
          cases.push_back({a.app, mode, a.base + i});
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<ChaosAppCase>& info) {
      std::string name = std::string(info.param.app) + "_" +
                         DetectionModeName(info.param.mode) + "_s" +
                         std::to_string(info.param.seed);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST_P(MembershipChaosAppTest, AppVerifiesThroughScriptedSuppressionWindow) {
  const ChaosAppCase& c = GetParam();
  SystemConfig config = ChaosConfig(4, c.mode, c.seed);
  const NodeId victim = static_cast<NodeId>(1 + c.seed % (config.num_procs - 1));
  // Open after a startup margin (first contact must happen for the victim to be
  // convictable at all), stay open long past the death threshold, heal mid-run.
  config.fault.chaos = {
      ChaosEvent{ChaosEvent::Kind::kMuteHeartbeats, victim, config.hb_interval_us * 10,
                 config.hb_interval_us * 100}};

  const AppReport report = RunSmall(c.app, config);

  EXPECT_TRUE(report.verified)
      << c.app << " diverged from the sequential golden execution under chaos seed "
      << c.seed << " (victim " << victim << ")";
  EXPECT_EQ(report.invariants.exactly_once_violations, 0u)
      << report.invariants.first_violation;
  EXPECT_EQ(report.invariants.incarnation_violations, 0u)
      << report.invariants.first_violation;
  EXPECT_EQ(report.invariants.liveness_violations, 0u)
      << report.invariants.first_violation;
}

}  // namespace
}  // namespace midway
