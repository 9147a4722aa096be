// Unit and property tests for the memory substrate: regions (header masking, protection),
// dirtybit tables (sentinel stamping, collection scans), page tables (twin lifecycle), and
// word-granularity diffs.
#include <cstring>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/mem/diff.h"
#include "src/mem/dirtybit_table.h"
#include "src/mem/page_table.h"
#include "src/mem/region.h"
#include "src/mem/shared_heap.h"

namespace midway {
namespace {

TEST(RegionTest, HeaderFoundByMasking) {
  Region region(7, 1 << 16, 64, /*shared=*/true);
  // Any pointer into the data area masks back to the header (the paper's Figure 1 trick).
  for (size_t offset : {size_t{0}, size_t{1}, size_t{4095}, size_t{65535}}) {
    RegionHeader* header = Region::HeaderFor(region.data() + offset);
    ASSERT_EQ(header, region.header());
    EXPECT_EQ(header->magic, RegionHeader::kMagic);
    EXPECT_EQ(header->region_id, 7u);
    EXPECT_EQ(header->line_shift, 6u);
    EXPECT_EQ(header->shared, 1u);
    EXPECT_EQ(header->data_base, region.data());
  }
}

TEST(RegionTest, PrivateRegionHasNoDirtybits) {
  Region region(1, 4096, 8, /*shared=*/false);
  EXPECT_EQ(region.dirtybits(), nullptr);
  EXPECT_EQ(region.header()->dirty_slots, nullptr);
  EXPECT_EQ(region.header()->shared, 0u);
}

TEST(RegionTest, DataIsWritableAndZeroInitialized) {
  Region region(0, 1 << 14, 8, true);
  for (size_t i = 0; i < region.size(); i += 997) {
    EXPECT_EQ(region.data()[i], std::byte{0});
    region.data()[i] = std::byte{0xAA};
    EXPECT_EQ(region.data()[i], std::byte{0xAA});
  }
}

TEST(RegionTest, LineMath) {
  Region region(0, 1000, 64, true);
  EXPECT_EQ(region.line_size(), 64u);
  EXPECT_EQ(region.num_lines(), 16u);  // ceil(1000/64)
}

TEST(RegionTest, ProtectionTogglesWritability) {
  Region region(0, 8192, 8, true);
  region.data()[0] = std::byte{1};
  region.ProtectDataRange(0, 4096, /*writable=*/false);
  // Reading still works.
  EXPECT_EQ(region.data()[0], std::byte{1});
  // The second page stays writable.
  region.data()[4096] = std::byte{2};
  region.ProtectDataRange(0, 4096, /*writable=*/true);
  region.data()[1] = std::byte{3};
  EXPECT_EQ(region.data()[1], std::byte{3});
}

// --- DirtybitTable --------------------------------------------------------------------------

TEST(DirtybitTest, StartsClean) {
  DirtybitTable db(128, 3);
  for (size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(db.Load(i), DirtybitTable::kClean);
  }
}

TEST(DirtybitTest, MarkAndStampLazily) {
  DirtybitTable db(128, 3);
  db.MarkDirty(5);
  EXPECT_EQ(db.Load(5), DirtybitTable::kDirtySentinel);
  std::vector<DirtybitTable::DirtyLine> lines;
  auto stats = db.CollectRange(0, 127, /*since=*/0, /*stamp_ts=*/42, &lines);
  EXPECT_EQ(stats.dirty_reads, 1u);
  EXPECT_EQ(stats.clean_reads, 127u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].line, 5u);
  EXPECT_EQ(lines[0].ts, 42u);
  EXPECT_EQ(db.Load(5), 42u);  // lazily stamped
}

TEST(DirtybitTest, SinceFiltersOldTimestamps) {
  DirtybitTable db(16, 3);
  db.Store(1, 10);
  db.Store(2, 20);
  db.Store(3, 30);
  std::vector<DirtybitTable::DirtyLine> lines;
  db.CollectRange(0, 15, /*since=*/15, /*stamp_ts=*/100, &lines);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].line, 2u);
  EXPECT_EQ(lines[1].line, 3u);
}

TEST(DirtybitTest, StampRangeOnlyTouchesSentinels) {
  DirtybitTable db(8, 3);
  db.Store(0, 5);
  db.MarkDirty(1);
  db.StampRange(0, 7, 99);
  EXPECT_EQ(db.Load(0), 5u);
  EXPECT_EQ(db.Load(1), 99u);
  EXPECT_EQ(db.Load(2), DirtybitTable::kClean);
}

TEST(DirtybitTest, ClearResets) {
  DirtybitTable db(8, 3);
  db.MarkDirty(0);
  db.Store(4, 77);
  db.Clear();
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(db.Load(i), DirtybitTable::kClean);
}

TEST(DirtybitTest, LineOf) {
  DirtybitTable db(64, 6);  // 64-byte lines
  EXPECT_EQ(db.LineOf(0), 0u);
  EXPECT_EQ(db.LineOf(63), 0u);
  EXPECT_EQ(db.LineOf(64), 1u);
  EXPECT_EQ(db.LineOf(4095), 63u);
}

// --- PageTable ------------------------------------------------------------------------------

class PageTableTest : public ::testing::TestWithParam<bool> {};  // preallocated twins?

INSTANTIATE_TEST_SUITE_P(TwinModes, PageTableTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "preallocated" : "lazy";
                         });

TEST_P(PageTableTest, FaultInTwinsOnce) {
  Region region(0, 4 * 4096, 8, true);
  PageTable table(&region, 4096, GetParam());
  std::memset(region.data(), 0x5A, region.size());
  EXPECT_FALSE(table.IsDirty(1));
  EXPECT_TRUE(table.FaultIn(1));
  EXPECT_TRUE(table.IsDirty(1));
  EXPECT_FALSE(table.FaultIn(1));  // already dirty
  EXPECT_EQ(table.fault_count(), 1u);
  // The twin snapshots the pre-fault contents.
  EXPECT_EQ(std::memcmp(table.Twin(1), region.data() + 4096, 4096), 0);
  region.data()[4096] = std::byte{0x00};
  EXPECT_NE(std::memcmp(table.Twin(1), region.data() + 4096, 4096), 0);
}

TEST_P(PageTableTest, MarkCleanAllowsRefault) {
  Region region(0, 2 * 4096, 8, true);
  PageTable table(&region, 4096, GetParam());
  EXPECT_TRUE(table.FaultIn(0));
  table.MarkClean(0);
  EXPECT_FALSE(table.IsDirty(0));
  EXPECT_TRUE(table.FaultIn(0));
  EXPECT_EQ(table.fault_count(), 2u);
}

// The communication thread may diff a page (for a lock it is granting) while the application
// thread is faulting the same page in for data bound to another lock. The hook runs in the
// fault path between claiming the page and copying its twin, exactly where such a reader can
// interleave: the page must not yet read as dirty, or the reader diffs against a missing
// (lazy twins) or half-copied (preallocated twins) twin.
TEST_P(PageTableTest, PageIsNotDirtyUntilTwinIsComplete) {
  Region region(0, 2 * 4096, 8, true);
  PageTable table(&region, 4096, GetParam());
  std::memset(region.data(), 0x5A, region.size());
  struct Seen {
    bool called = false;
    bool dirty_before_twin = false;
  } seen;
  table.SetClaimHookForTesting(
      [](PageTable* t, size_t page, void* arg) {
        auto* s = static_cast<Seen*>(arg);
        s->called = true;
        s->dirty_before_twin = t->IsDirty(page);
      },
      &seen);
  EXPECT_TRUE(table.FaultIn(1));
  EXPECT_TRUE(seen.called);
  EXPECT_FALSE(seen.dirty_before_twin);
  EXPECT_TRUE(table.IsDirty(1));
  ASSERT_NE(table.Twin(1), nullptr);
  EXPECT_EQ(std::memcmp(table.Twin(1), region.data() + 4096, 4096), 0);
  EXPECT_FALSE(table.FaultIn(1));  // a claimed-then-dirty page is not claimed twice
}

TEST_P(PageTableTest, PartialLastPage) {
  Region region(0, 4096 + 100, 8, true);
  PageTable table(&region, 4096, GetParam());
  EXPECT_EQ(table.num_pages(), 2u);
  EXPECT_EQ(table.PageBytes(0), 4096u);
  EXPECT_EQ(table.PageBytes(1), 100u);
  EXPECT_TRUE(table.FaultIn(1));
  EXPECT_EQ(std::memcmp(table.Twin(1), region.data() + 4096, 100), 0);
}

TEST(PageTableTest2, PageOfMath) {
  Region region(0, 1 << 16, 8, true);
  PageTable table(&region, 4096, false);
  EXPECT_EQ(table.PageOf(0), 0u);
  EXPECT_EQ(table.PageOf(4095), 0u);
  EXPECT_EQ(table.PageOf(4096), 1u);
  EXPECT_EQ(table.PageBegin(3), 3u * 4096);
}

// --- Diff -----------------------------------------------------------------------------------

std::vector<std::byte> RandomBytes(SplitMix64* rng, size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng->Next());
  return out;
}

TEST(DiffTest, IdenticalPagesProduceNoRuns) {
  std::vector<std::byte> a(4096, std::byte{0x11});
  EXPECT_TRUE(ComputeDiff(a, a).empty());
  EXPECT_TRUE(SpansEqual(a, a));
}

TEST(DiffTest, SingleWordChange) {
  std::vector<std::byte> a(4096, std::byte{0});
  std::vector<std::byte> b = a;
  a[100] = std::byte{1};
  auto runs = ComputeDiff(a, b);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 100u);
  EXPECT_EQ(runs[0].length, 4u);
}

TEST(DiffTest, AdjacentWordsMerge) {
  std::vector<std::byte> a(64, std::byte{0});
  std::vector<std::byte> b = a;
  for (size_t i = 8; i < 24; ++i) a[i] = std::byte{0xFF};
  auto runs = ComputeDiff(a, b);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 8u);
  EXPECT_EQ(runs[0].length, 16u);
}

TEST(DiffTest, AlternatingWordsProduceMaxRuns) {
  std::vector<std::byte> a(256, std::byte{0});
  std::vector<std::byte> b = a;
  for (size_t w = 0; w < 256 / 4; w += 2) a[w * 4] = std::byte{1};
  auto runs = ComputeDiff(a, b);
  EXPECT_EQ(runs.size(), 256u / 8);
  EXPECT_EQ(DiffBytes(runs), 256u / 2);
}

TEST(DiffTest, TrailingFragment) {
  std::vector<std::byte> a(10, std::byte{0});
  std::vector<std::byte> b = a;
  a[9] = std::byte{1};  // inside the 2-byte tail
  auto runs = ComputeDiff(a, b);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 8u);
  EXPECT_EQ(runs[0].length, 2u);
}

TEST(DiffTest, ClipRuns) {
  std::vector<DiffRun> runs = {{0, 16}, {32, 8}, {100, 20}};
  auto clipped = ClipRuns(runs, 8, 110);
  ASSERT_EQ(clipped.size(), 3u);
  EXPECT_EQ(clipped[0], (DiffRun{8, 8}));
  EXPECT_EQ(clipped[1], (DiffRun{32, 8}));
  EXPECT_EQ(clipped[2], (DiffRun{100, 10}));
  EXPECT_TRUE(ClipRuns(runs, 16, 32).empty());
}

class DiffFuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DiffFuzzTest, ::testing::Range(uint64_t{1}, uint64_t{13}));

// Property: applying the diff runs (copy current->twin over each run) makes the twin equal
// to the current page; and the runs cover exactly the modified words.
TEST_P(DiffFuzzTest, RunsReconstructExactly) {
  SplitMix64 rng(GetParam());
  const size_t size = 512 + rng.NextBounded(4096);
  auto twin = RandomBytes(&rng, size);
  auto current = twin;
  const size_t changes = rng.NextBounded(100);
  for (size_t c = 0; c < changes; ++c) {
    current[rng.NextBounded(size)] = static_cast<std::byte>(rng.Next());
  }
  auto runs = ComputeDiff(current, twin);
  auto patched = twin;
  for (const DiffRun& run : runs) {
    std::memcpy(patched.data() + run.offset, current.data() + run.offset, run.length);
  }
  EXPECT_TRUE(SpansEqual(patched, current));
  // Minimality at word granularity: every run's first and last word actually differ.
  for (const DiffRun& run : runs) {
    size_t first_len = std::min<size_t>(4, run.length);
    EXPECT_NE(std::memcmp(current.data() + run.offset, twin.data() + run.offset, first_len), 0);
  }
}

// --- BumpAllocator --------------------------------------------------------------------------

TEST(BumpAllocatorTest, AlignsAndAdvances) {
  BumpAllocator heap(1024);
  EXPECT_EQ(heap.Alloc(10, 8), 0u);
  EXPECT_EQ(heap.Alloc(1, 8), 16u);
  EXPECT_EQ(heap.Alloc(8, 64), 64u);
  EXPECT_EQ(heap.used(), 72u);
}

TEST(BumpAllocatorTest, DeterministicSequences) {
  BumpAllocator a(4096);
  BumpAllocator b(4096);
  SplitMix64 rng(5);
  for (int i = 0; i < 50; ++i) {
    size_t bytes = 1 + rng.NextBounded(32);
    EXPECT_EQ(a.Alloc(bytes, 8), b.Alloc(bytes, 8));
  }
}

}  // namespace
}  // namespace midway
