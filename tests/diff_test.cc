// Diff edge cases the VM-DSM correctness rests on, plus an encode→apply round-trip that
// pushes diff-derived updates through the real wire format (the path a grant takes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/common/rng.h"
#include "src/core/protocol.h"
#include "src/mem/diff.h"

namespace midway {
namespace {

std::vector<std::byte> RandomBytes(SplitMix64* rng, size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng->Next());
  return out;
}

TEST(DiffEdgeTest, EmptySpansProduceEmptyDiff) {
  std::vector<std::byte> empty;
  EXPECT_TRUE(ComputeDiff(empty, empty).empty());
  EXPECT_TRUE(SpansEqual(empty, empty));
  EXPECT_EQ(DiffBytes({}), 0u);
  EXPECT_TRUE(ClipRuns({}, 0, 100).empty());
}

TEST(DiffEdgeTest, FullyDirtyPageIsOneRun) {
  std::vector<std::byte> twin(4096, std::byte{0x00});
  std::vector<std::byte> current(4096, std::byte{0xFF});
  auto runs = ComputeDiff(current, twin);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[0].length, 4096u);
  EXPECT_EQ(DiffBytes(runs), 4096u);
}

TEST(DiffEdgeTest, FullyDirtyUnalignedPageIsOneRun) {
  // 4099 = 1024 whole words + a 3-byte tail, all modified: tail merges into the run.
  std::vector<std::byte> twin(4099, std::byte{0x00});
  std::vector<std::byte> current(4099, std::byte{0xFF});
  auto runs = ComputeDiff(current, twin);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[0].length, 4099u);
}

TEST(DiffEdgeTest, TailOnlyBufferSmallerThanOneWord) {
  std::vector<std::byte> twin(3, std::byte{0});
  std::vector<std::byte> current = twin;
  current[2] = std::byte{9};
  auto runs = ComputeDiff(current, twin);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[0].length, 3u);
}

TEST(DiffEdgeTest, CleanTailAfterDirtyLastWordDoesNotExtendRun) {
  // Last whole word dirty, 2-byte tail clean: the run must stop at the word boundary.
  std::vector<std::byte> twin(14, std::byte{0});
  std::vector<std::byte> current = twin;
  current[10] = std::byte{1};  // word [8,12) dirty; tail [12,14) untouched
  auto runs = ComputeDiff(current, twin);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 8u);
  EXPECT_EQ(runs[0].length, 4u);
}

TEST(DiffEdgeTest, DirtyTailMergesWithAdjacentDirtyWord) {
  std::vector<std::byte> twin(14, std::byte{0});
  std::vector<std::byte> current = twin;
  current[10] = std::byte{1};  // word [8,12)
  current[13] = std::byte{2};  // tail [12,14)
  auto runs = ComputeDiff(current, twin);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 8u);
  EXPECT_EQ(runs[0].length, 6u);
}

// Window diff: on random pages with unaligned windows (and pages whose size is not a whole
// number of words), diffing only the window gives exactly the whole-page diff clipped to the
// window, and bytes beyond the window's enclosing words do not matter — they are never read.
class WindowDiffTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, WindowDiffTest, ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST_P(WindowDiffTest, EqualsClippedWholePageDiff) {
  SplitMix64 rng(GetParam() * 7877);
  const size_t sizes[] = {4096, 4099, 257, 64, 7, 3};
  std::vector<DiffRun> runs;
  for (int iter = 0; iter < 200; ++iter) {
    const size_t size = sizes[rng.NextBounded(std::size(sizes))];
    std::vector<std::byte> twin = RandomBytes(&rng, size);
    std::vector<std::byte> current = twin;
    const size_t touches = rng.NextBounded(12);
    for (size_t t = 0; t < touches; ++t) {
      const size_t at = rng.NextBounded(size);
      const size_t len = std::min<size_t>(size - at, 1 + rng.NextBounded(24));
      for (size_t i = at; i < at + len; ++i) current[i] = ~current[i];
    }
    auto lo = static_cast<uint32_t>(rng.NextBounded(size + 1));
    auto hi = static_cast<uint32_t>(rng.NextBounded(size + 1));
    if (lo > hi) std::swap(lo, hi);
    ComputeWindowDiffInto(current, twin, lo, hi, &runs);
    EXPECT_EQ(runs, ClipRuns(ComputeDiffScalar(current, twin), lo, hi))
        << "seed " << GetParam() << " iter " << iter << " size " << size << " window [" << lo
        << ", " << hi << ")";
    // Scribble over everything outside the window's enclosing words: same result.
    const size_t word_lo = lo / 4 * 4;
    const size_t word_hi = std::min(size, (size_t{hi} + 3) / 4 * 4);
    std::vector<std::byte> scribbled = current;
    for (size_t i = 0; i < size; ++i) {
      if (i < word_lo || i >= word_hi) scribbled[i] = ~twin[i];
    }
    std::vector<DiffRun> again;
    ComputeWindowDiffInto(scribbled, twin, lo, hi, &again);
    EXPECT_EQ(again, runs) << "seed " << GetParam() << " iter " << iter;
  }
}

class DiffWireRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, DiffWireRoundTripTest,
                         ::testing::Range(uint64_t{100}, uint64_t{116}));

// Property over seeded random twins: diff the pages, package the runs as wire update
// entries, encode, decode, apply to a copy of the twin — the result must equal the current
// page byte-for-byte. This is exactly what a VM-DSM grant does to the requester's copy.
TEST_P(DiffWireRoundTripTest, EncodeApplyReconstructs) {
  SplitMix64 rng(GetParam());
  const size_t size = 64 + rng.NextBounded(8192);  // frequently unaligned
  auto twin = RandomBytes(&rng, size);
  auto current = twin;
  const size_t mutations = 1 + rng.NextBounded(200);
  for (size_t m = 0; m < mutations; ++m) {
    // Mix single bytes and short ranges, including ones touching the tail.
    const size_t at = rng.NextBounded(size);
    const size_t len = 1 + rng.NextBounded(std::min<size_t>(16, size - at));
    for (size_t i = 0; i < len; ++i) {
      current[at + i] = static_cast<std::byte>(rng.Next());
    }
  }

  const auto runs = ComputeDiff(current, twin);

  UpdateSet updates;
  for (const DiffRun& run : runs) {
    UpdateEntry entry;
    entry.addr = GlobalAddr{7, run.offset};
    entry.ts = 0;
    // Borrow straight from the live buffer, as the RT collect fast path does.
    entry.BindView({current.data() + run.offset, run.length});
    updates.push_back(std::move(entry));
  }

  WireWriter writer;
  EncodeUpdateSet(&writer, updates);
  const std::vector<std::byte> frame = writer.Take();
  WireReader reader(frame);
  UpdateSet decoded;
  ASSERT_TRUE(DecodeUpdateSet(&reader, &decoded)) << "seed " << GetParam();
  ASSERT_EQ(decoded.size(), updates.size());

  auto patched = twin;
  for (const UpdateEntry& entry : decoded) {
    ASSERT_EQ(entry.addr.region, 7u);
    ASSERT_LE(entry.addr.offset + entry.length, patched.size());
    std::memcpy(patched.data() + entry.addr.offset, entry.data.data(), entry.length);
  }
  EXPECT_TRUE(SpansEqual(patched, current)) << "seed " << GetParam();
  EXPECT_EQ(DiffBytes(runs), UpdateBytes(decoded)) << "seed " << GetParam();
}

}  // namespace
}  // namespace midway
