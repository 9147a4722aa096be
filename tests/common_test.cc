// Unit tests for the common utilities: alignment, RNG determinism, options, tables, the JSON
// writer, Lamport clocks, and bindings.
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/align.h"
#include "src/common/json_writer.h"
#include "src/common/options.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/sync/binding.h"
#include "src/sync/lamport_clock.h"

namespace midway {
namespace {

TEST(AlignTest, PowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 63));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(4097));
}

TEST(AlignTest, AlignUpDown) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(9, 8), 16u);
  EXPECT_EQ(AlignDown(7, 8), 0u);
  EXPECT_EQ(AlignDown(8, 8), 8u);
  EXPECT_EQ(AlignDown(15, 8), 8u);
}

TEST(AlignTest, Log2AndCeilDiv) {
  EXPECT_EQ(Log2(1), 0u);
  EXPECT_EQ(Log2(2), 1u);
  EXPECT_EQ(Log2(4096), 12u);
  EXPECT_EQ(CeilDiv(0, 8), 0u);
  EXPECT_EQ(CeilDiv(1, 8), 1u);
  EXPECT_EQ(CeilDiv(8, 8), 1u);
  EXPECT_EQ(CeilDiv(9, 8), 2u);
}

TEST(RngTest, DeterministicAcrossInstances) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, BoundedStaysInRange) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    int32_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, RoughlyUniform) {
  SplitMix64 rng(3);
  int buckets[10] = {};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[rng.NextBounded(10)];
  }
  for (int b : buckets) {
    EXPECT_GT(b, kDraws / 10 * 0.9);
    EXPECT_LT(b, kDraws / 10 * 1.1);
  }
}

TEST(OptionsTest, ParsesForms) {
  // Note: a bare `--flag` followed by a non-flag token consumes it as the flag's value, so
  // boolean flags must come last or use `--flag=true`.
  const char* argv[] = {"prog", "--procs=8", "--mode",  "vmsoft",
                        "positional", "--ratio=2.5", "--full"};
  Options options(7, const_cast<char**>(argv));
  EXPECT_EQ(options.GetInt("procs", 0), 8);
  EXPECT_EQ(options.GetString("mode", ""), "vmsoft");
  EXPECT_TRUE(options.GetBool("full"));
  EXPECT_DOUBLE_EQ(options.GetDouble("ratio", 0), 2.5);
  ASSERT_EQ(options.Positional().size(), 1u);
  EXPECT_EQ(options.Positional()[0], "positional");
  EXPECT_EQ(options.GetInt("absent", -3), -3);
}

TEST(TableTest, RendersAligned) {
  Table t({"a", "bee"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer", "22"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| a      | bee |"), std::string::npos);
  EXPECT_NE(out.find("| longer |  22 |"), std::string::npos);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::Num(uint64_t{0}), "0");
  EXPECT_EQ(Table::Num(uint64_t{999}), "999");
  EXPECT_EQ(Table::Num(uint64_t{1000}), "1,000");
  EXPECT_EQ(Table::Num(uint64_t{1284004}), "1,284,004");
  EXPECT_EQ(Table::Num(int64_t{-29100}), "-29,100");
  EXPECT_EQ(Table::Fixed(485.26, 1), "485.3");
  EXPECT_EQ(Table::Fixed(3103.9, 1), "3,103.9");
  EXPECT_EQ(Table::Micros(0.36), "0.360");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginObject().Field("s", std::string("q\"b\\c\rd\x01" "e\n\tf")).EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"q\\\"b\\\\c\\rd\\u0001e\\n\\tf\"}\n");
}

TEST(JsonWriterTest, NestingPlacesSeparators) {
  JsonWriter w;
  w.BeginObject().Key("empty_obj").BeginObject().EndObject();
  w.Key("empty_arr").BeginArray().EndArray();
  w.Key("rows").BeginArray();
  w.BeginObject().Field("a", 1).Key("inner").BeginArray().Int(2).Int(3).EndArray().EndObject();
  w.BeginArray().EndArray();
  w.EndArray().Field("ok", true).EndObject();
  EXPECT_EQ(w.str(),
            "{\"empty_obj\":{},\"empty_arr\":[],\"rows\":[\n"
            "{\"a\":1,\"inner\":[\n2,\n3]},\n[]],\"ok\":true}\n");
}

TEST(JsonWriterTest, Numbers) {
  JsonWriter w;
  w.BeginArray().Uint(std::numeric_limits<uint64_t>::max()).Int(-42).RawNumber("1.500");
  w.Double(0.25).Double(std::nan("")).Double(std::numeric_limits<double>::infinity());
  w.Double(-std::numeric_limits<double>::infinity()).EndArray();
  EXPECT_EQ(w.str(), "[\n18446744073709551615,\n-42,\n1.500,\n0.25,\nnull,\nnull,\nnull]\n");
}

TEST(LamportClockTest, MonotoneTicks) {
  LamportClock clock;
  uint64_t prev = clock.Now();
  for (int i = 0; i < 100; ++i) {
    uint64_t t = clock.Tick();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(LamportClockTest, ObserveAdvancesPastRemote) {
  LamportClock clock;
  EXPECT_GT(clock.Observe(100), 100u);
  EXPECT_GT(clock.Now(), 100u);
  // Observing an older time still advances.
  uint64_t before = clock.Now();
  EXPECT_GT(clock.Observe(5), before);
}

TEST(LamportClockTest, ConcurrentObserversNeverLoseTime) {
  LamportClock clock;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&clock] {
      for (int i = 0; i < 10000; ++i) {
        clock.Tick();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GE(clock.Now(), 40000u);
}

TEST(BindingTest, NormalizeMergesOverlaps) {
  Binding b;
  b.ranges = {
      GlobalRange{{0, 100}, 50},
      GlobalRange{{0, 0}, 60},
      GlobalRange{{0, 50}, 60},   // bridges the first two
      GlobalRange{{1, 0}, 10},    // different region: never merged
      GlobalRange{{0, 300}, 0},   // empty: dropped
  };
  b.Normalize();
  ASSERT_EQ(b.ranges.size(), 2u);
  EXPECT_EQ(b.ranges[0], (GlobalRange{{0, 0}, 150}));
  EXPECT_EQ(b.ranges[1], (GlobalRange{{1, 0}, 10}));
}

TEST(BindingTest, TotalBytes) {
  Binding b;
  b.ranges = {GlobalRange{{0, 0}, 100}, GlobalRange{{2, 64}, 28}};
  EXPECT_EQ(b.TotalBytes(), 128u);
}

TEST(GlobalRangeTest, ContainsAndOverlaps) {
  GlobalRange r{{3, 100}, 50};
  EXPECT_TRUE(r.Contains(GlobalAddr{3, 100}));
  EXPECT_TRUE(r.Contains(GlobalAddr{3, 149}));
  EXPECT_FALSE(r.Contains(GlobalAddr{3, 150}));
  EXPECT_FALSE(r.Contains(GlobalAddr{2, 120}));
  EXPECT_TRUE(r.Overlaps(GlobalRange{{3, 149}, 10}));
  EXPECT_FALSE(r.Overlaps(GlobalRange{{3, 150}, 10}));
  EXPECT_FALSE(r.Overlaps(GlobalRange{{4, 100}, 50}));
}

}  // namespace
}  // namespace midway
