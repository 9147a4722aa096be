// Application-level integration tests: every app must produce results identical to its
// sequential reference under every detection strategy and several processor counts.
#include <algorithm>

#include <gtest/gtest.h>

#include "src/apps/apps.h"

namespace midway {
namespace {

struct AppCase {
  const char* app;
  DetectionMode mode;
  uint16_t procs;
};

std::string CaseName(const ::testing::TestParamInfo<AppCase>& info) {
  std::string name = std::string(info.param.app) + "_" + DetectionModeName(info.param.mode) +
                     "_p" + std::to_string(info.param.procs);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class AppVerificationTest : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppVerificationTest, MatchesSequentialReference) {
  const AppCase& c = GetParam();
  SystemConfig config;
  config.mode = c.mode;
  config.num_procs = c.procs;
  AppReport report = RunAppByName(c.app, config, /*full_scale=*/false);
  EXPECT_TRUE(report.verified) << c.app << " under " << DetectionModeName(c.mode) << " with "
                               << c.procs << " procs";
}

std::vector<AppCase> MakeCases() {
  // Blast supports lock-bound data only: it applies to quicksort and cholesky (whose
  // barriers carry no data).
  const std::vector<DetectionMode> barrier_modes = {
      DetectionMode::kRt,         DetectionMode::kVmSoft,   DetectionMode::kVmSigsegv,
      DetectionMode::kTwinAll,    DetectionMode::kRtTwoLevel, DetectionMode::kRtQueue,
      DetectionMode::kRtHybrid,
  };
  const std::vector<DetectionMode> lock_modes = {
      DetectionMode::kRt,      DetectionMode::kVmSoft,     DetectionMode::kVmSigsegv,
      DetectionMode::kBlast,   DetectionMode::kTwinAll,    DetectionMode::kRtTwoLevel,
      DetectionMode::kRtQueue, DetectionMode::kRtHybrid,
  };
  std::vector<AppCase> cases;
  for (const char* app : {"water", "matmul", "sor"}) {
    for (DetectionMode mode : barrier_modes) {
      cases.push_back({app, mode, 4});
    }
    cases.push_back({app, DetectionMode::kRt, 1});
    cases.push_back({app, DetectionMode::kRt, 3});
    cases.push_back({app, DetectionMode::kVmSoft, 8});
  }
  for (const char* app : {"quicksort", "cholesky"}) {
    for (DetectionMode mode : lock_modes) {
      cases.push_back({app, mode, 4});
    }
    cases.push_back({app, DetectionMode::kRt, 1});
    cases.push_back({app, DetectionMode::kRt, 3});
    cases.push_back({app, DetectionMode::kVmSoft, 8});
  }
  for (const char* app : {"water", "quicksort", "matmul", "sor", "cholesky"}) {
    cases.push_back({app, DetectionMode::kStandalone, 1});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Apps, AppVerificationTest, ::testing::ValuesIn(MakeCases()), CaseName);

// Counter shape assertions matching the paper's qualitative claims.

TEST(AppCounters, MatmulWritesEveryResultWordOnce) {
  SystemConfig config;
  config.mode = DetectionMode::kRt;
  config.num_procs = 4;
  MatmulParams params;
  AppReport report = RunMatmul(config, params);
  ASSERT_TRUE(report.verified);
  // One dirtybit set per C element (doubleword lines).
  EXPECT_EQ(report.total.dirtybits_set, static_cast<uint64_t>(params.n) * params.n);
}

TEST(AppCounters, MatmulVmFaultsAreFarFewerThanStores) {
  SystemConfig config;
  config.mode = DetectionMode::kVmSoft;
  config.num_procs = 4;
  MatmulParams params;
  AppReport report = RunMatmul(config, params);
  ASSERT_TRUE(report.verified);
  const uint64_t stores = static_cast<uint64_t>(params.n) * params.n;
  EXPECT_GT(report.total.write_faults, 0u);
  // The whole point of VM-DSM on matmul: one fault amortized over a page of stores.
  EXPECT_LT(report.total.write_faults * 100, stores);
}

TEST(AppCounters, QuicksortRebindingCausesFullSendsUnderVm) {
  SystemConfig config;
  config.mode = DetectionMode::kVmSoft;
  config.num_procs = 4;
  AppReport report = RunQuicksort(config, QuicksortParams{});
  ASSERT_TRUE(report.verified);
  // Rebinding clears the update log, so task-lock transfers ship full data without diffing
  // (paper: "the incarnation number is incremented which causes all data bound to the lock
  // to be sent without performing a diff").
  EXPECT_GT(report.total.full_data_sends, 0u);
}

TEST(AppCounters, CholeskyIsFineGrained) {
  SystemConfig config;
  config.mode = DetectionMode::kRt;
  config.num_procs = 4;
  AppReport report = RunCholesky(config, CholeskyParams{});
  ASSERT_TRUE(report.verified);
  // Many small lock transfers: more acquires than any coarse app at the same scale.
  EXPECT_GT(report.total.lock_acquires, 500u);
}

TEST(AppCounters, DataVolumeShapes) {
  // Data-volume relations from the paper's evaluation: quicksort's per-task rebinding makes
  // VM-DSM ship full bound data on (nearly) every transfer, far exceeding RT-DSM's dirty
  // lines; for the other applications the two stay within a small factor of each other at
  // this scale (RT ships whole lines, VM ships word-granular diff runs).
  auto run = [](const char* app, DetectionMode mode) {
    SystemConfig config;
    config.mode = mode;
    config.num_procs = 4;
    AppReport report = RunAppByName(app, config, false);
    EXPECT_TRUE(report.verified) << app << " " << DetectionModeName(mode);
    return report;
  };
  // The paper reports VM/RT ~ 1.4x for quicksort (816 KB vs 579 KB per processor); with
  // this runtime's full-send log carrying (see GrantTo) the gap narrows, but VM must still
  // ship more than RT over the task locks — its rebind transfers are whole ranges, RT's are
  // dirty lines. Task ownership is static (quicksort.cc), so the task-lock transfers are a
  // function of the input alone and their bytes are compared exactly. The queue lock's
  // traffic is left out: it grows with how often idle workers poll the queue, which varies
  // with scheduling and under load can invert the total.
  auto quicksort_bytes_over_task_locks = [&](DetectionMode mode) {
    const AppReport report = run("quicksort", mode);
    uint64_t bytes = 0;
    for (const LockStat& stat : report.lock_stats) {
      if (stat.id != 0) bytes += stat.bytes_granted;  // lock 0 is the queue lock (made first)
    }
    return bytes;
  };
  EXPECT_GT(quicksort_bytes_over_task_locks(DetectionMode::kVmSoft),
            quicksort_bytes_over_task_locks(DetectionMode::kRt));
  for (const char* app : {"water", "sor", "matmul", "cholesky"}) {
    const uint64_t rt_bytes = run(app, DetectionMode::kRt).total.data_bytes_sent;
    const uint64_t vm_bytes = run(app, DetectionMode::kVmSoft).total.data_bytes_sent;
    EXPECT_LE(rt_bytes, vm_bytes * 3 / 2 + 4096) << app;
    EXPECT_LE(vm_bytes, rt_bytes * 3 / 2 + 4096) << app;
  }
}

TEST(AppCounters, SorFirstGatherIsRedundantOnlyAtReceivers) {
  // A barrier's first crossing ships everything modified since time zero, so the final
  // whole-grid gather relays lines every node merely applied earlier. The receiver-side
  // timestamp check must drop those (exactly-once), and the relays must not be flagged as
  // entry-consistency races.
  SystemConfig config;
  config.mode = DetectionMode::kRt;
  config.num_procs = 4;
  AppReport report = RunSor(config, SorParams{});
  ASSERT_TRUE(report.verified);
  EXPECT_GT(report.total.redundant_bytes_skipped, 0u);
  EXPECT_EQ(report.total.race_warnings, 0u);
}

}  // namespace
}  // namespace midway
