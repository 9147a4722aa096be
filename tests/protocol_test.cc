// Protocol message serialization: roundtrips for every message type, malformed-frame safety,
// and randomized sweeps over update sets.
#include <gtest/gtest.h>

#include <initializer_list>

#include "src/common/rng.h"
#include "src/core/protocol.h"

namespace midway {
namespace {

UpdateSet MakeUpdates(SplitMix64* rng, size_t count) {
  UpdateSet set;
  for (size_t i = 0; i < count; ++i) {
    UpdateEntry e;
    e.addr = GlobalAddr{static_cast<RegionId>(rng->NextBounded(4)),
                        static_cast<uint32_t>(rng->NextBounded(1 << 20))};
    e.ts = rng->Next();
    std::vector<std::byte> bytes(1 + rng->NextBounded(256));
    for (auto& b : bytes) b = static_cast<std::byte>(rng->Next());
    e.BindCopy(bytes);
    set.push_back(std::move(e));
  }
  return set;
}

TEST(ProtocolTest, AcquireRoundtrip) {
  AcquireMsg msg;
  msg.lock = 77;
  msg.mode = LockMode::kShared;
  msg.requester = 5;
  msg.last_seen_ts = 123456789;
  msg.last_seen_inc = 42;
  msg.binding_version = 7;
  msg.clock = 999;
  for (MsgType type : {MsgType::kAcquireReq, MsgType::kForward}) {
    auto frame = Encode(type, msg);
    MsgType got_type;
    ASSERT_TRUE(PeekType(frame, &got_type));
    EXPECT_EQ(got_type, type);
    AcquireMsg got;
    ASSERT_TRUE(Decode(frame, &got));
    EXPECT_EQ(got, msg);
  }
}

TEST(ProtocolTest, GrantRoundtripWithBindingAndLog) {
  SplitMix64 rng(3);
  GrantMsg msg;
  msg.lock = 9;
  msg.mode = LockMode::kExclusive;
  msg.granter = 2;
  msg.grant_ts = 5555;
  msg.incarnation = 12;
  msg.full_data = true;
  Binding binding;
  binding.version = 3;
  binding.ranges = {GlobalRange{{0, 64}, 128}, GlobalRange{{2, 0}, 4096}};
  msg.binding = binding;
  msg.updates.push_back(LoggedUpdate{10, MakeUpdates(&rng, 5)});
  msg.updates.push_back(LoggedUpdate{11, MakeUpdates(&rng, 0)});
  msg.updates.push_back(LoggedUpdate{12, MakeUpdates(&rng, 17)});

  auto frame = Encode(msg);
  GrantMsg got;
  ASSERT_TRUE(Decode(frame, &got));
  EXPECT_EQ(got, msg);
}

TEST(ProtocolTest, GrantRoundtripWithoutBinding) {
  GrantMsg msg;
  msg.lock = 1;
  msg.granter = 0;
  msg.grant_ts = 1;
  auto frame = Encode(msg);
  GrantMsg got;
  ASSERT_TRUE(Decode(frame, &got));
  EXPECT_FALSE(got.binding.has_value());
  EXPECT_EQ(got, msg);
}

TEST(ProtocolTest, ReadReleaseRoundtrip) {
  ReadReleaseMsg msg{31, 4, 888};
  ReadReleaseMsg got;
  ASSERT_TRUE(Decode(Encode(msg), &got));
  EXPECT_EQ(got, msg);
}

TEST(ProtocolTest, BarrierRoundtrips) {
  SplitMix64 rng(9);
  // A relayed enter carries several origins' chunks: an internal tree node merged its own
  // contribution with two children's before forwarding one combined message to its parent.
  BarrierEnterMsg enter;
  enter.barrier = 2;
  enter.node = 6;
  enter.round = 17;
  enter.clock = 424242;
  enter.chunks.push_back(BarrierChunk{6, 424242, MakeUpdates(&rng, 8)});
  enter.chunks.push_back(BarrierChunk{13, 424240, MakeUpdates(&rng, 2)});
  enter.chunks.push_back(BarrierChunk{14, 424241, MakeUpdates(&rng, 0)});
  BarrierEnterMsg got_enter;
  ASSERT_TRUE(Decode(Encode(enter), &got_enter));
  EXPECT_EQ(got_enter, enter);

  BarrierReleaseMsg release;
  release.barrier = 2;
  release.release_ts = 424300;
  release.round = 17;
  release.chunks.push_back(BarrierChunk{1, 424250, MakeUpdates(&rng, 3)});
  release.chunks.push_back(BarrierChunk{2, 424260, MakeUpdates(&rng, 1)});
  BarrierReleaseMsg got_release;
  ASSERT_TRUE(Decode(Encode(release), &got_release));
  EXPECT_EQ(got_release, release);

  // Rounds past 65535 must survive the wire intact (the old u16 truncation stalled
  // long-running restarts); catch-up releases round-trip their flag too.
  BarrierReleaseMsg late;
  late.barrier = 2;
  late.release_ts = 900000;
  late.round = 0x0002ABCD;
  late.catch_up = true;
  BarrierReleaseMsg got_late;
  ASSERT_TRUE(Decode(Encode(late), &got_late));
  EXPECT_EQ(got_late.round, 0x0002ABCDu);
  EXPECT_EQ(got_late, late);
}

TEST(ProtocolTest, HeartbeatAndJoinRoundtrips) {
  HeartbeatMsg hb{3, 2, 123456789};
  HeartbeatMsg got_hb;
  ASSERT_TRUE(Decode(Encode(hb), &got_hb));
  EXPECT_EQ(got_hb, hb);

  HeartbeatAckMsg ack{1, 0, 123456789};
  HeartbeatAckMsg got_ack;
  ASSERT_TRUE(Decode(Encode(ack), &got_ack));
  EXPECT_EQ(got_ack, ack);

  JoinReqMsg join{2, 1, 2, 777};
  JoinReqMsg got_join;
  ASSERT_TRUE(Decode(Encode(join), &got_join));
  EXPECT_EQ(got_join, join);
}

TEST(ProtocolTest, RecoveryRoundtrips) {
  RecoveryBeginMsg begin;
  begin.epoch = 9;
  begin.dead = 1;
  begin.dead_incarnation = 0;
  begin.new_incarnation = 1;
  begin.coordinator = 3;  // sharded coordination: reports go to the hash-designated node
  begin.clock = 4242;
  RecoveryBeginMsg got_begin;
  ASSERT_TRUE(Decode(Encode(begin), &got_begin));
  EXPECT_EQ(got_begin, begin);

  RecoveryReportMsg report;
  report.epoch = 9;
  report.node = 2;
  report.clock = 4243;
  report.locks.push_back(LockStateReport{
      0, LockStateReport::kResident | LockStateReport::kHeldExclusive, 5, 4, 1000, 2});
  // rollback_inc nonzero: a wrongly-buried node's rejoin report claiming its copy
  // supersedes the burying epoch's relabeled version 3.
  report.locks.push_back(LockStateReport{1, LockStateReport::kWaiting, 0, 3, 999, 1, 3});
  RecoveryReportMsg got_report;
  ASSERT_TRUE(Decode(Encode(report), &got_report));
  EXPECT_EQ(got_report, report);

  RecoveryCommitMsg commit;
  commit.epoch = 9;
  commit.dead = 1;
  commit.new_incarnation = 1;
  commit.coordinator = 3;
  commit.clock = 4244;
  commit.locks.push_back(LockVerdict{0, 2, 6, 0});
  commit.locks.push_back(LockVerdict{1, 0, 4, 2});
  // Membership snapshot: the coordinator's full committed view rides on every commit so a
  // rejoiner (restarted or resurrected) recovers the deaths it missed, not just its own.
  commit.member_dead = {0, 0, 1, 0};
  commit.member_inc = {0, 1, 0, 2};
  RecoveryCommitMsg got_commit;
  ASSERT_TRUE(Decode(Encode(commit), &got_commit));
  EXPECT_EQ(got_commit, commit);
}

TEST(ProtocolTest, EmptyFrameRejected) {
  MsgType type;
  EXPECT_FALSE(PeekType({}, &type));
}

TEST(ProtocolTest, MismatchedHeaderRejectedEverywhere) {
  // A frame from a peer speaking a different protocol version (or random garbage) must be
  // rejected at every decode entry point — type peek, message decode, and the reliability
  // sublayer — never parsed as payload.
  AcquireMsg msg;
  msg.lock = 3;
  auto frame = Encode(MsgType::kAcquireReq, msg);
  auto bad_version = frame;
  bad_version[2] = static_cast<std::byte>(kWireVersion + 1);
  auto bad_magic = frame;
  bad_magic[0] = std::byte{0x00};

  MsgType type;
  EXPECT_FALSE(PeekType(bad_version, &type));
  EXPECT_FALSE(PeekType(bad_magic, &type));
  AcquireMsg got;
  EXPECT_FALSE(Decode(bad_version, &got));
  EXPECT_FALSE(Decode(bad_magic, &got));

  auto rel = EncodeRelData(1, 0, 0, frame);
  auto rel_bad = rel;
  rel_bad[2] = static_cast<std::byte>(kWireVersion + 1);
  RelHeader header;
  std::span<const std::byte> payload;
  ASSERT_TRUE(DecodeRelFrame(rel, &header, &payload));
  EXPECT_FALSE(DecodeRelFrame(rel_bad, &header, &payload));
}

TEST(ProtocolTest, TruncatedFramesFailCleanly) {
  SplitMix64 rng(11);
  GrantMsg msg;
  msg.lock = 9;
  msg.updates.push_back(LoggedUpdate{1, MakeUpdates(&rng, 6)});
  auto frame = Encode(msg);
  // Every strict prefix must decode to failure, never crash or OOB.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    GrantMsg got;
    EXPECT_FALSE(Decode(std::span<const std::byte>(frame.data(), cut), &got)) << cut;
  }
}

TEST(ProtocolTest, CorruptedLengthFieldIsSafe) {
  SplitMix64 rng(13);
  BarrierEnterMsg msg;
  msg.chunks.push_back(BarrierChunk{0, 7, MakeUpdates(&rng, 2)});
  auto frame = Encode(msg);
  // Flip bytes one at a time; decode must either succeed (benign flip) or fail cleanly.
  for (size_t i = 0; i < frame.size(); ++i) {
    auto corrupted = frame;
    corrupted[i] = static_cast<std::byte>(static_cast<uint8_t>(corrupted[i]) ^ 0xFF);
    BarrierEnterMsg got;
    (void)Decode(corrupted, &got);
  }
}

class ProtocolFuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzTest, ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST_P(ProtocolFuzzTest, RandomGrantsRoundtrip) {
  SplitMix64 rng(GetParam() * 7919);
  for (int iter = 0; iter < 20; ++iter) {
    GrantMsg msg;
    msg.lock = static_cast<LockId>(rng.Next());
    msg.mode = rng.NextBounded(2) == 0 ? LockMode::kExclusive : LockMode::kShared;
    msg.granter = static_cast<NodeId>(rng.NextBounded(16));
    msg.grant_ts = rng.Next();
    msg.incarnation = static_cast<uint32_t>(rng.Next());
    msg.full_data = rng.NextBounded(2) == 0;
    if (rng.NextBounded(2) == 0) {
      Binding binding;
      binding.version = static_cast<uint32_t>(rng.Next());
      for (size_t r = 0; r < rng.NextBounded(5); ++r) {
        binding.ranges.push_back(
            GlobalRange{{static_cast<RegionId>(rng.NextBounded(8)),
                         static_cast<uint32_t>(rng.NextBounded(1 << 24))},
                        static_cast<uint32_t>(rng.NextBounded(1 << 16))});
      }
      msg.binding = std::move(binding);
    }
    for (size_t l = 0; l < rng.NextBounded(4); ++l) {
      msg.updates.push_back(
          LoggedUpdate{static_cast<uint32_t>(rng.Next()), MakeUpdates(&rng, rng.NextBounded(8))});
    }
    GrantMsg got;
    ASSERT_TRUE(Decode(Encode(msg), &got));
    EXPECT_EQ(got, msg);
  }
}

// --- Update-set framing ---------------------------------------------------------------

// Entries in the shapes the delta framing must survive: offsets out of order (negative
// deltas), regions interleaved entry by entry, zero-length entries, and ts that mix zero
// with nonzero values (or are all zero, which drops the ts column from the set).
UpdateSet MakeMixedUpdates(SplitMix64* rng, size_t count, bool with_ts) {
  UpdateSet set;
  for (size_t i = 0; i < count; ++i) {
    UpdateEntry e;
    e.addr.region =
        static_cast<RegionId>(rng->NextBounded(3) == 0 ? rng->Next() : rng->NextBounded(3));
    const auto length =
        static_cast<uint32_t>(rng->NextBounded(5) == 0 ? 0 : 1 + rng->NextBounded(96));
    e.addr.offset = rng->NextBounded(4) == 0
                        ? static_cast<uint32_t>(UINT32_MAX - length - rng->NextBounded(16))
                        : static_cast<uint32_t>(rng->NextBounded(1 << 16));
    e.ts = with_ts && rng->NextBounded(2) == 0 ? rng->Next() : 0;
    std::vector<std::byte> bytes(length);
    for (auto& b : bytes) b = static_cast<std::byte>(rng->Next());
    e.BindCopy(bytes);
    set.push_back(std::move(e));
  }
  return set;
}

std::vector<std::byte> EncodeSet(const UpdateSet& set) {
  WireWriter w;
  EncodeUpdateSet(&w, set);
  return w.Take();
}

class UpdateSetFuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateSetFuzzTest, ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST_P(UpdateSetFuzzTest, MixedShapesRoundtrip) {
  SplitMix64 rng(GetParam() * 104729);
  for (int iter = 0; iter < 50; ++iter) {
    const UpdateSet set = MakeMixedUpdates(&rng, rng.NextBounded(40), iter % 3 != 0);
    const auto frame = EncodeSet(set);
    WireReader r(frame);
    UpdateSet got;
    ASSERT_TRUE(DecodeUpdateSet(&r, &got)) << "seed " << GetParam() << " iter " << iter;
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(got, set) << "seed " << GetParam() << " iter " << iter;
    // Every strict prefix fails cleanly.
    for (size_t cut = 0; cut < frame.size(); ++cut) {
      WireReader cut_r(std::span<const std::byte>(frame.data(), cut));
      UpdateSet partial;
      EXPECT_FALSE(DecodeUpdateSet(&cut_r, &partial)) << "cut " << cut;
    }
  }
}

TEST(UpdateSetFramingTest, AscendingUntimedRunsCostThreeHeaderBytes) {
  // The VM diff shape: 8-byte runs every 16 bytes in one region, ts 0. Each entry is a
  // length byte and an offset-delta byte; the set adds a count varint and a flags byte.
  UpdateSet set;
  std::vector<std::byte> bytes(8, std::byte{7});
  for (uint32_t i = 0; i < 100; ++i) {
    UpdateEntry e;
    e.addr = GlobalAddr{3, 4096 + 16 * i};
    e.BindCopy(bytes);
    set.push_back(std::move(e));
  }
  const auto frame = EncodeSet(set);
  // First entry: length|new_region, region, offset delta (2 bytes for 4096); then 2 per entry.
  EXPECT_EQ(frame.size(), 1 + 1 + (1 + 1 + 2) + 99 * 2 + UpdateBytes(set));
}

TEST(UpdateSetFramingTest, RejectsOverlongVarints) {
  // count = 1 written as a non-minimal two-byte varint.
  const std::vector<std::byte> frame = {std::byte{0x81}, std::byte{0x00}, std::byte{0x00},
                                        std::byte{0x02}, std::byte{0x00}};
  WireReader r(frame);
  UpdateSet got;
  EXPECT_FALSE(DecodeUpdateSet(&r, &got));
}

TEST(UpdateSetFramingTest, RejectsOffsetOverflow) {
  // Hand-built sets: [count][flags] then one entry [length<<1 | new_region][offset delta].
  auto decode = [](std::initializer_list<uint64_t> head, int64_t delta, size_t payload) {
    WireWriter w;
    for (uint64_t v : head) w.VarU64(v);
    w.VarI64(delta);
    w.Raw(std::vector<std::byte>(payload));
    const auto frame = w.Take();
    WireReader r(frame);
    UpdateSet got;
    return DecodeUpdateSet(&r, &got);
  };
  // count 1, flags 0 (written as a varint 0, one byte), length 4, same region.
  EXPECT_TRUE(decode({1, 0, 4 << 1}, int64_t{UINT32_MAX} - 4, 4));
  EXPECT_FALSE(decode({1, 0, 4 << 1}, int64_t{UINT32_MAX} - 3, 4));  // end past u32
  EXPECT_FALSE(decode({1, 0, 4 << 1}, int64_t{UINT32_MAX} + 1, 4));  // offset past u32
  EXPECT_FALSE(decode({1, 0, 4 << 1}, -1, 4));                        // offset below 0
  EXPECT_FALSE(decode({1, 0, (uint64_t{1} << 32) << 1}, 0, 0));       // length past u32
}

TEST(UpdateSetFramingTest, RejectsCountsTheFrameCannotHold) {
  WireWriter w;
  w.VarU64(uint64_t{1} << 40);
  w.U8(0);
  w.Raw(std::vector<std::byte>(64));
  const auto frame = w.Take();
  WireReader r(frame);
  UpdateSet got;
  EXPECT_FALSE(DecodeUpdateSet(&r, &got));
  // Unknown flag bits are rejected too.
  WireWriter f;
  f.VarU64(0);
  f.U8(0x80);
  const auto flagged = f.Take();
  WireReader fr(flagged);
  EXPECT_FALSE(DecodeUpdateSet(&fr, &got));
}

TEST(ProtocolTest, ReleaseOmitsTheNamedChunkOnlyWhenPresent) {
  SplitMix64 rng(21);
  BarrierReleaseMsg full;
  full.barrier = 1;
  full.release_ts = 99;
  full.round = 4;
  full.chunks.push_back(BarrierChunk{0, 90, MakeUpdates(&rng, 3)});
  full.chunks.push_back(BarrierChunk{1, 91, MakeUpdates(&rng, 5)});
  full.chunks.push_back(BarrierChunk{2, 92, MakeUpdates(&rng, 2)});
  const auto full_frame = Encode(full);

  BarrierReleaseMsg trimmed = full;
  trimmed.omitted_chunk = 1;
  const auto trimmed_frame = Encode(trimmed);
  BarrierReleaseMsg got;
  ASSERT_TRUE(Decode(trimmed_frame, &got));
  EXPECT_EQ(got.omitted_chunk, 1);
  ASSERT_EQ(got.chunks.size(), 2u);
  EXPECT_EQ(got.chunks[0], full.chunks[0]);
  EXPECT_EQ(got.chunks[1], full.chunks[2]);
  // Exactly the omitted chunk's bytes (node, enter_ts, update set) are saved.
  WireWriter chunk;
  EncodeUpdateSet(&chunk, full.chunks[1].updates);
  EXPECT_EQ(full_frame.size() - trimmed_frame.size(), 2 + 8 + chunk.Size());

  // Naming an origin with no chunk omits nothing and is not written.
  BarrierReleaseMsg absent = full;
  absent.omitted_chunk = 7;
  EXPECT_EQ(Encode(absent), full_frame);
}

}  // namespace
}  // namespace midway
