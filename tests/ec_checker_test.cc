// Seeded-violation suite for the entry-consistency checker (ISSUE 3): every violation class
// is injected deliberately and asserted by exact kind, count, and site attribution; the
// clean-run tests then prove the five paper apps produce zero findings in RT and VM modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/apps/apps.h"
#include "src/core/midway.h"

namespace midway {
namespace {

#ifndef MIDWAY_EC_CHECK

TEST(EcCheckerTest, CompiledOut) {
  GTEST_SKIP() << "MIDWAY_EC_CHECK compiled out; EC checker suite not applicable";
}

#else

SystemConfig EcConfig(uint16_t procs = 1) {
  SystemConfig config;
  config.num_procs = procs;
  config.ec_check = true;
  return config;
}

// Returns the first retained report of `kind`, or nullptr.
const EcViolation* FindReport(const EcSummary& summary, EcViolationKind kind) {
  for (const EcViolation& v : summary.reports) {
    if (v.kind == kind) return &v;
  }
  return nullptr;
}

TEST(EcCheckerTest, UnboundWriteDetectedWithSite) {
  SystemConfig config = EcConfig();
  System system(config);
  uint32_t expected_line = 0;
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 16);
    rt.BeginParallel();
    expected_line = __LINE__ + 1;
    data.Set(3, 42);  // no lock or barrier binds this region at all
  });
  const EcSummary summary = system.EcReport();
  EXPECT_EQ(summary.total(), 1u);
  ASSERT_EQ(summary.count(EcViolationKind::kUnboundWrite), 1u);
  const EcViolation* v = FindReport(summary, EcViolationKind::kUnboundWrite);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(v->site.known());
  EXPECT_EQ(v->site.line, expected_line);
  EXPECT_NE(std::string(v->site.file).find("ec_checker_test"), std::string::npos);
  EXPECT_EQ(system.Total().ec_unbound_writes, 1u);
}

TEST(EcCheckerTest, UnboundWriteDedupsPerLineAndKind) {
  SystemConfig config = EcConfig();
  config.default_line_size = 64;
  System system(config);
  system.Run([](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 32);  // 128 bytes = 2 lines of 64
    rt.BeginParallel();
    data.Set(0, 1);  // line 0: reported
    data.Set(1, 2);  // line 0 again: deduplicated
    data.Set(16, 3);  // line 1: reported
  });
  EXPECT_EQ(system.EcReport().count(EcViolationKind::kUnboundWrite), 2u);
  EXPECT_EQ(system.EcReport().total(), 2u);
}

TEST(EcCheckerTest, WrongLockWriteDetected) {
  SystemConfig config = EcConfig();
  System system(config);
  uint32_t expected_line = 0;
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 16);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    rt.BeginParallel();
    expected_line = __LINE__ + 1;
    data.Set(0, 7);  // bound to `lock`, but we do not hold it
    rt.Acquire(lock);
    data.Set(1, 8);  // held exclusively: authorized (and same line: no dedup interference)
    rt.Release(lock);
  });
  const EcSummary summary = system.EcReport();
  EXPECT_EQ(summary.total(), 1u);
  ASSERT_EQ(summary.count(EcViolationKind::kWrongLockWrite), 1u);
  const EcViolation* v = FindReport(summary, EcViolationKind::kWrongLockWrite);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->site.line, expected_line);
  EXPECT_EQ(v->sync_a, 0u);  // the first user lock
  EXPECT_EQ(system.Total().ec_wrong_lock_writes, 1u);
}

TEST(EcCheckerTest, SharedModeRmwFlagged) {
  // The bugfixed compound assignments route their read half through the checked-read path;
  // the write half of an RMW under a shared-mode (read) hold is a wrong-lock write.
  SystemConfig config = EcConfig();
  System system(config);
  system.Run([](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 8);
    for (int i = 0; i < 8; ++i) data.raw_mutable()[i] = 10;  // init-phase
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    rt.BeginParallel();
    rt.Acquire(lock, LockMode::kShared);
    data[0] += 5;  // read licensed, write not: exclusive hold required
    rt.Release(lock);
    EXPECT_EQ(data.Get(0), 15);
  });
  const EcSummary summary = system.EcReport();
  ASSERT_EQ(summary.count(EcViolationKind::kWrongLockWrite), 1u);
  const EcViolation* v = FindReport(summary, EcViolationKind::kWrongLockWrite);
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(v->site.known());  // proxy write: C++20 forbids site capture on operator+=
  EXPECT_NE(v->detail.find("shared-mode"), std::string::npos);
}

TEST(EcCheckerTest, RebindGapWriteDetected) {
  // The quicksort pitfall: after Rebind narrows the binding, the holder keeps writing the
  // range it handed away.
  SystemConfig config = EcConfig();
  config.default_line_size = 8;
  System system(config);
  uint32_t expected_line = 0;
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 16);
    LockId lock = rt.CreateLock();
    rt.Bind(lock, {data.WholeRange()});
    rt.BeginParallel();
    rt.Acquire(lock);
    data.Set(2, 1);  // authorized: binding still covers the whole array
    rt.Rebind(lock, {data.Range(0, 1)});
    data.Set(0, 2);  // authorized: still inside the narrowed binding
    expected_line = __LINE__ + 1;
    data.Set(2, 3);  // the gap: covered before the Rebind, not anymore
    rt.Release(lock);
  });
  const EcSummary summary = system.EcReport();
  EXPECT_EQ(summary.total(), 1u);
  ASSERT_EQ(summary.count(EcViolationKind::kRebindGapWrite), 1u);
  const EcViolation* v = FindReport(summary, EcViolationKind::kRebindGapWrite);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->site.line, expected_line);
  EXPECT_EQ(v->sync_a, 0u);
  EXPECT_EQ(system.Total().ec_rebind_gap_writes, 1u);
}

TEST(EcCheckerTest, BindingOverlapAndFalseSharingDetected) {
  SystemConfig config = EcConfig();
  config.default_line_size = 64;
  System system(config);
  system.Run([](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 64);  // 256 bytes = 4 lines of 64
    LockId a = rt.CreateLock();
    LockId b = rt.CreateLock();
    LockId c = rt.CreateLock();
    LockId d = rt.CreateLock();
    rt.Bind(a, {data.Range(0, 8)});    // bytes [0, 32)
    rt.Bind(b, {data.Range(4, 8)});    // bytes [16, 48): byte-overlaps a
    rt.Bind(c, {data.Range(32, 4)});   // bytes [128, 144): line 2 ...
    rt.Bind(d, {data.Range(36, 4)});   // bytes [144, 160): ... also line 2, byte-disjoint
    rt.BeginParallel();
  });
  const EcSummary summary = system.EcReport();
  EXPECT_EQ(summary.count(EcViolationKind::kBindingOverlap), 2u);
  EXPECT_EQ(summary.total(), 2u);
  bool saw_overlap = false;
  bool saw_false_sharing = false;
  for (const EcViolation& v : summary.reports) {
    if (v.kind != EcViolationKind::kBindingOverlap) continue;
    if (v.detail.find("false sharing") != std::string::npos) {
      saw_false_sharing = true;
      EXPECT_EQ(v.sync_a, 2u);
      EXPECT_EQ(v.sync_b, 3u);
      EXPECT_NE(v.detail.find("padded layout"), std::string::npos);
    } else {
      saw_overlap = true;
      EXPECT_EQ(v.sync_a, 0u);
      EXPECT_EQ(v.sync_b, 1u);
    }
  }
  EXPECT_TRUE(saw_overlap);
  EXPECT_TRUE(saw_false_sharing);
  EXPECT_EQ(system.Total().ec_binding_overlaps, 2u);
}

TEST(EcCheckerTest, EraserLocksetGoesEmpty) {
  // Two locks both bound to the same data (reported once as an overlap), written under one
  // lock then under the other: no single lock protects the line — the candidate lockset
  // empties on the second write.
  SystemConfig config = EcConfig();
  System system(config);
  system.Run([](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 16);
    LockId a = rt.CreateLock();
    LockId b = rt.CreateLock();
    rt.Bind(a, {data.WholeRange()});
    rt.Bind(b, {data.WholeRange()});
    rt.BeginParallel();
    rt.Acquire(a);
    data.Set(0, 1);  // candidates {a, b} -> {a}
    rt.Release(a);
    rt.Acquire(b);
    data.Set(0, 2);  // candidates {a} ∩ {b} = {} -> lockset violation
    rt.Release(b);
  });
  const EcSummary summary = system.EcReport();
  EXPECT_EQ(summary.count(EcViolationKind::kBindingOverlap), 1u);
  EXPECT_EQ(summary.count(EcViolationKind::kLocksetEmpty), 1u);
  EXPECT_EQ(summary.total(), 2u);
  EXPECT_EQ(system.Total().ec_lockset_violations, 1u);
}

TEST(EcCheckerTest, StaleReadConfirmedAtGrantApply) {
  SystemConfig config = EcConfig(2);
  System system(config);
  uint32_t expected_line = 0;
  system.Run([&](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 4);
    LockId lock = rt.CreateLock();
    BarrierId sync = rt.CreateBarrier();
    rt.Bind(lock, {data.WholeRange()});
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      data.Set(0, 99);
      rt.Release(lock);
    }
    rt.BarrierWait(sync);
    if (rt.self() == 1) {
      expected_line = __LINE__ + 1;
      (void)data.CheckedGet(0);  // unlocked read of lock-bound data: possibly stale copy
      rt.Acquire(lock);          // the grant ships node 0's write -> the read was stale
      EXPECT_EQ(data.Get(0), 99);
      rt.Release(lock);
    }
    rt.FinishParallel();
  });
  const EcSummary summary = system.EcReport();
  ASSERT_EQ(summary.count(EcViolationKind::kStaleRead), 1u);
  EXPECT_EQ(summary.total(), 1u);
  const EcViolation* v = FindReport(summary, EcViolationKind::kStaleRead);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->node, 1u);
  EXPECT_EQ(v->site.line, expected_line);
  EXPECT_EQ(v->sync_a, 0u);
  EXPECT_EQ(system.Total().ec_stale_reads, 1u);
}

TEST(EcCheckerTest, LockedAndBarrierReadsNeverFlagged) {
  // Reads under a covering hold, and reads refreshed by a barrier crossing before the next
  // grant, must not report.
  SystemConfig config = EcConfig(2);
  System system(config);
  system.Run([](Runtime& rt) {
    auto data = MakeSharedArray<int64_t>(rt, 4);
    LockId lock = rt.CreateLock();
    BarrierId sync = rt.CreateBarrier();
    rt.Bind(lock, {data.WholeRange()});
    rt.BeginParallel();
    if (rt.self() == 0) {
      rt.Acquire(lock);
      data.Set(0, 5);
      rt.Release(lock);
    }
    rt.BarrierWait(sync);
    if (rt.self() == 1) {
      rt.Acquire(lock, LockMode::kShared);
      (void)data.CheckedGet(0);  // synchronized read: the hold covers it
      rt.Release(lock);
    }
    rt.FinishParallel();
  });
  EXPECT_EQ(system.EcReport().total(), 0u);
}

TEST(EcCheckerTest, JsonArtifactWritten) {
  const std::string path = testing::TempDir() + "/ec_report.json";
  std::remove(path.c_str());
  SystemConfig config = EcConfig();
  config.ec_report_path = path;
  {
    System system(config);
    system.Run([](Runtime& rt) {
      auto data = MakeSharedArray<int32_t>(rt, 4);
      rt.BeginParallel();
      data.Set(0, 1);  // one unbound write
    });
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "JSON artifact not written to " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"total\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"unbound-write\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("ec_checker_test"), std::string::npos) << json;
  std::remove(path.c_str());
}

TEST(EcCheckerTest, DisabledByDefaultCostsNothing) {
  SystemConfig config;  // ec_check defaults to false
  config.num_procs = 1;
  System system(config);
  system.Run([](Runtime& rt) {
    auto data = MakeSharedArray<int32_t>(rt, 4);
    rt.BeginParallel();
    data.Set(0, 1);  // would be an unbound write if the checker were on
  });
  EXPECT_EQ(system.EcReport().total(), 0u);
  EXPECT_EQ(system.Total().ec_unbound_writes, 0u);
}

// --- Clean runs: the five paper apps are violation-free under the checker ------------------

// The app name is a std::string, not a const char*: gtest prints a pointer parameter with its
// address, which would put a load-address-dependent value into every test's listed name.
class EcCleanRunTest : public testing::TestWithParam<std::tuple<std::string, DetectionMode>> {};

TEST_P(EcCleanRunTest, AppRunsViolationFree) {
  const auto& [app, mode] = GetParam();
  SystemConfig config;
  config.num_procs = 4;
  config.mode = mode;
  config.ec_check = true;
  const AppReport report = RunAppByName(app, config, /*full_scale=*/false);
  EXPECT_TRUE(report.verified) << app;
  EXPECT_EQ(report.ec.total(), 0u) << app << " under EC checker:\n"
                                   << FormatEcReport(report.ec);
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsRtAndVm, EcCleanRunTest,
    testing::Combine(testing::Values("water", "quicksort", "matmul", "sor", "cholesky"),
                     testing::Values(DetectionMode::kRt, DetectionMode::kVmSoft)),
    [](const testing::TestParamInfo<EcCleanRunTest::ParamType>& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == DetectionMode::kRt ? "_rt" : "_vm");
    });

#endif  // MIDWAY_EC_CHECK

}  // namespace
}  // namespace midway
