// Receive-path frame parsing for the event-loop transport (src/net/recv_buffer.h): a
// seeded fuzz of FrameAssembler against every byte-stream pathology a non-blocking socket
// produces — partial reads, frames split across recv calls, many frames coalesced into one
// buffer — plus the rejection paths (oversized frame length poisons the assembler,
// connection EOF mid-frame is detectable) and pooled-buffer lifetime: a frame view must
// stay valid after the assembler has rolled to fresh buffers, and buffers must return to
// the pool's free list only when the last view into them is dropped (the ASan build is the
// real referee for both).
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/net/recv_buffer.h"

namespace midway {
namespace net {
namespace {

uint64_t StressSeeds(uint64_t def) {
  const char* env = std::getenv("MIDWAY_STRESS_SEEDS");
  if (env == nullptr) return def;
  const long v = std::strtol(env, nullptr, 10);
  return v > 0 ? static_cast<uint64_t>(v) : def;
}

// Deterministic payload: frame i's byte j is a function of (i, j), so a delivered frame
// identifies itself and any cross-frame corruption is caught byte-for-byte.
std::vector<std::byte> MakePayload(uint32_t frame_index, size_t len) {
  std::vector<std::byte> p(len);
  for (size_t j = 0; j < len; ++j) {
    p[j] = static_cast<std::byte>((frame_index * 131 + j * 31 + 7) & 0xFF);
  }
  return p;
}

std::vector<std::byte> Encode(uint16_t src, const std::vector<std::byte>& payload) {
  uint8_t header[kFrameHeaderBytes];
  FillFrameHeader(header, static_cast<uint32_t>(payload.size()), src);
  std::vector<std::byte> wire(kFrameHeaderBytes + payload.size());
  std::memcpy(wire.data(), header, kFrameHeaderBytes);
  if (!payload.empty()) {  // an empty vector's data() may be null, which memcpy forbids
    std::memcpy(wire.data() + kFrameHeaderBytes, payload.data(), payload.size());
  }
  return wire;
}

// Feeds `stream` into the assembler in chunks drawn from `next_chunk`, collecting frames.
// Every delivered frame is copied out immediately (the normal transport discipline).
struct FedResult {
  std::vector<std::pair<uint16_t, std::vector<std::byte>>> frames;
  bool error = false;
};

template <typename ChunkFn>
FedResult Feed(FrameAssembler* assembler, const std::vector<std::byte>& stream,
               ChunkFn next_chunk) {
  FedResult result;
  size_t at = 0;
  while (at < stream.size() && !assembler->error()) {
    const size_t want = next_chunk();
    std::span<std::byte> tail = assembler->WritableTail(/*min_hint=*/1);
    const size_t n = std::min({want, tail.size(), stream.size() - at});
    std::memcpy(tail.data(), stream.data() + at, n);
    assembler->CommitRead(n);
    at += n;
    RecvFrame frame;
    while (assembler->Next(&frame)) {
      result.frames.emplace_back(
          frame.src, std::vector<std::byte>(frame.payload.begin(), frame.payload.end()));
    }
  }
  result.error = assembler->error();
  return result;
}

TEST(FrameAssembler, SingleFrameByteAtATime) {
  RecvBufferPool pool(4096);
  FrameAssembler assembler(&pool);
  const auto payload = MakePayload(0, 100);
  FedResult fed = Feed(&assembler, Encode(3, payload), [] { return size_t{1}; });
  ASSERT_EQ(fed.frames.size(), 1u);
  EXPECT_EQ(fed.frames[0].first, 3u);
  EXPECT_EQ(fed.frames[0].second, payload);
  EXPECT_FALSE(assembler.HasPartialFrame());
}

TEST(FrameAssembler, ManyFramesCoalescedInOneRead) {
  RecvBufferPool pool(1 << 16);
  FrameAssembler assembler(&pool);
  std::vector<std::byte> stream;
  std::vector<std::vector<std::byte>> want;
  for (uint32_t i = 0; i < 50; ++i) {
    want.push_back(MakePayload(i, 1 + i * 7));
    const auto wire = Encode(static_cast<uint16_t>(i % 5), want.back());
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  // One giant chunk: all 50 frames arrive in a single CommitRead.
  FedResult fed = Feed(&assembler, stream, [&] { return stream.size(); });
  ASSERT_EQ(fed.frames.size(), want.size());
  for (uint32_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fed.frames[i].first, i % 5);
    EXPECT_EQ(fed.frames[i].second, want[i]) << "frame " << i;
  }
}

TEST(FrameAssembler, EmptyPayloadFrames) {
  RecvBufferPool pool(4096);
  FrameAssembler assembler(&pool);
  std::vector<std::byte> stream;
  for (int i = 0; i < 3; ++i) {
    const auto wire = Encode(static_cast<uint16_t>(i), {});
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  FedResult fed = Feed(&assembler, stream, [] { return size_t{2}; });
  ASSERT_EQ(fed.frames.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(fed.frames[i].first, static_cast<uint16_t>(i));
    EXPECT_TRUE(fed.frames[i].second.empty());
  }
}

TEST(FrameAssembler, FrameLargerThanPooledBuffer) {
  // A frame bigger than the pool's buffer takes the dedicated exact-size buffer path; its
  // bytes may arrive across many reads.
  RecvBufferPool pool(1024);
  FrameAssembler assembler(&pool);
  const auto payload = MakePayload(9, 10 * 1024);
  SplitMix64 rng(0xFEED);
  FedResult fed = Feed(&assembler, Encode(1, payload),
                       [&] { return 1 + rng.NextBounded(700); });
  ASSERT_EQ(fed.frames.size(), 1u);
  EXPECT_EQ(fed.frames[0].second, payload);
}

TEST(FrameAssembler, OversizedLengthIsStickyError) {
  RecvBufferPool pool(4096);
  FrameAssembler assembler(&pool, /*max_frame_bytes=*/1024);
  uint8_t header[kFrameHeaderBytes];
  FillFrameHeader(header, 1025, /*src=*/0);
  std::span<std::byte> tail = assembler.WritableTail(kFrameHeaderBytes);
  std::memcpy(tail.data(), header, kFrameHeaderBytes);
  assembler.CommitRead(kFrameHeaderBytes);
  RecvFrame frame;
  EXPECT_FALSE(assembler.Next(&frame));
  EXPECT_TRUE(assembler.error());
  EXPECT_FALSE(assembler.error_message().empty());
  // Sticky: even a well-formed follow-up frame must not be parsed — the stream cannot be
  // resynchronized after a framing violation.
  const auto wire = Encode(0, MakePayload(0, 8));
  tail = assembler.WritableTail(wire.size());
  std::memcpy(tail.data(), wire.data(), std::min(tail.size(), wire.size()));
  assembler.CommitRead(std::min(tail.size(), wire.size()));
  EXPECT_FALSE(assembler.Next(&frame));
  EXPECT_TRUE(assembler.error());
}

TEST(FrameAssembler, TruncatedHeaderAtEofIsDetectable) {
  RecvBufferPool pool(4096);
  FrameAssembler assembler(&pool);
  // Three of six header bytes, then the peer hangs up.
  uint8_t header[kFrameHeaderBytes];
  FillFrameHeader(header, 64, /*src=*/2);
  std::span<std::byte> tail = assembler.WritableTail(3);
  std::memcpy(tail.data(), header, 3);
  assembler.CommitRead(3);
  RecvFrame frame;
  EXPECT_FALSE(assembler.Next(&frame));
  EXPECT_FALSE(assembler.error());       // not a protocol violation...
  EXPECT_TRUE(assembler.HasPartialFrame());  // ...but EOF here means truncation
}

TEST(FrameAssembler, TruncatedPayloadAtEofIsDetectable) {
  RecvBufferPool pool(4096);
  FrameAssembler assembler(&pool);
  const auto wire = Encode(1, MakePayload(0, 200));
  std::span<std::byte> tail = assembler.WritableTail(wire.size());
  const size_t sent = wire.size() - 50;  // header + partial payload
  std::memcpy(tail.data(), wire.data(), sent);
  assembler.CommitRead(sent);
  RecvFrame frame;
  EXPECT_FALSE(assembler.Next(&frame));
  EXPECT_FALSE(assembler.error());
  EXPECT_TRUE(assembler.HasPartialFrame());
}

// The fuzz: random frame sizes fed through random chunk sizes. Every frame must come out
// intact, in order, exactly once, no matter how the stream is sliced; reassembly copies
// must stay bounded by the straddle fragments (strictly less than total payload).
TEST(FrameAssembler, SeededFuzzRoundTrip) {
  const uint64_t seeds = StressSeeds(12);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SplitMix64 rng(0x5CA1E000 + seed);
    // Small pool buffers force frequent rolls; sizes straddle the pooled/dedicated split.
    const size_t pool_bytes = 256 + rng.NextBounded(2048);
    RecvBufferPool pool(pool_bytes);
    FrameAssembler assembler(&pool);

    std::vector<std::byte> stream;
    std::vector<std::pair<uint16_t, std::vector<std::byte>>> want;
    uint64_t payload_total = 0;
    const int frames = 40 + static_cast<int>(rng.NextBounded(80));
    for (int i = 0; i < frames; ++i) {
      // Mix of empty, tiny, buffer-sized, and oversize-of-pool payloads.
      const size_t kind = rng.NextBounded(4);
      size_t len = 0;
      if (kind == 1) len = 1 + rng.NextBounded(64);
      if (kind == 2) len = pool_bytes / 2 + rng.NextBounded(pool_bytes);
      if (kind == 3) len = pool_bytes * 2 + rng.NextBounded(pool_bytes * 4);
      auto payload = MakePayload(static_cast<uint32_t>(i), len);
      const auto src = static_cast<uint16_t>(rng.NextBounded(64));
      const auto wire = Encode(src, payload);
      stream.insert(stream.end(), wire.begin(), wire.end());
      want.emplace_back(src, std::move(payload));
      payload_total += len;
    }

    FedResult fed = Feed(&assembler, stream, [&] { return 1 + rng.NextBounded(1500); });
    ASSERT_FALSE(fed.error) << "seed " << seed << ": " << assembler.error_message();
    ASSERT_EQ(fed.frames.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(fed.frames[i].first, want[i].first) << "seed " << seed << " frame " << i;
      ASSERT_EQ(fed.frames[i].second, want[i].second) << "seed " << seed << " frame " << i;
    }
    EXPECT_FALSE(assembler.HasPartialFrame()) << "seed " << seed;
    EXPECT_LT(assembler.BytesCopied(), payload_total + kFrameHeaderBytes * want.size())
        << "seed " << seed << ": reassembly copied more than the stream itself";
  }
}

// --- Pooled-buffer lifetime ----------------------------------------------------------------

TEST(RecvBufferPool, BuffersRecycleThroughFreeList) {
  RecvBufferPool pool(1024);
  EXPECT_EQ(pool.FreeCount(), 0u);
  auto a = pool.Get(100);
  EXPECT_EQ(pool.Allocations(), 1u);
  a.reset();  // back to the free list
  EXPECT_EQ(pool.FreeCount(), 1u);
  auto b = pool.Get(100);
  EXPECT_EQ(pool.Reuses(), 1u);
  EXPECT_EQ(pool.FreeCount(), 0u);
  // Oversized requests get dedicated buffers that are freed, not pooled.
  auto big = pool.Get(4096);
  EXPECT_GE(big->size(), 4096u);
  big.reset();
  EXPECT_EQ(pool.FreeCount(), 0u);
  b.reset();
  EXPECT_EQ(pool.FreeCount(), 1u);
}

TEST(RecvBufferPool, FrameViewKeepsItsBufferAliveAcrossRolls) {
  // Hold every delivered frame while the assembler rolls through many buffers; under ASan
  // any keepalive bug is a heap-use-after-free here, and the held frames must still carry
  // their original bytes afterwards.
  RecvBufferPool pool(512);
  FrameAssembler assembler(&pool);
  std::vector<std::byte> stream;
  std::vector<std::vector<std::byte>> want;
  for (uint32_t i = 0; i < 64; ++i) {
    want.push_back(MakePayload(i, 100 + i));
    const auto wire = Encode(static_cast<uint16_t>(i), want.back());
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  std::deque<RecvFrame> held;  // views, NOT copies
  size_t at = 0;
  SplitMix64 rng(0xA11CE);
  while (at < stream.size()) {
    std::span<std::byte> tail = assembler.WritableTail(1);
    const size_t n = std::min<size_t>(1 + rng.NextBounded(300),
                                      std::min(tail.size(), stream.size() - at));
    std::memcpy(tail.data(), stream.data() + at, n);
    assembler.CommitRead(n);
    at += n;
    RecvFrame frame;
    while (assembler.Next(&frame)) held.push_back(std::move(frame));
  }
  ASSERT_EQ(held.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(held[i].payload.size(), want[i].size());
    EXPECT_EQ(std::memcmp(held[i].payload.data(), want[i].data(), want[i].size()), 0)
        << "frame " << i << " corrupted while held across buffer rolls";
  }
  // Dropping the views returns the pooled buffers; the free list refills (capped).
  held.clear();
  EXPECT_GT(pool.FreeCount(), 0u);
}

TEST(RecvBufferPool, ViewsOutliveThePoolItself) {
  // Buffers released after the pool is gone are simply freed — the shared state outlives
  // the pool object. A use-after-free here is ASan-fatal.
  std::shared_ptr<std::vector<std::byte>> survivor;
  {
    RecvBufferPool pool(256);
    survivor = pool.Get(64);
    (*survivor)[0] = std::byte{42};
  }
  EXPECT_EQ((*survivor)[0], std::byte{42});
  survivor.reset();
}

}  // namespace
}  // namespace net
}  // namespace midway
