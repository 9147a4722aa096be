// Wire encoding: roundtrips, bounds safety, and randomized property sweeps.
#include <gtest/gtest.h>

#include <initializer_list>
#include <iterator>

#include "src/common/rng.h"
#include "src/net/wire.h"

namespace midway {
namespace {

TEST(WireTest, ScalarRoundtrip) {
  WireWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-42);
  w.F64(3.14159);
  auto buffer = w.Take();

  WireReader r(buffer);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_DOUBLE_EQ(r.F64(), 3.14159);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, LittleEndianLayout) {
  WireWriter w;
  w.U32(0x01020304);
  auto buffer = w.Take();
  ASSERT_EQ(buffer.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(buffer[0]), 0x04);
  EXPECT_EQ(static_cast<uint8_t>(buffer[3]), 0x01);
}

TEST(WireTest, BytesAndStrings) {
  WireWriter w;
  std::vector<std::byte> blob = {std::byte{1}, std::byte{2}, std::byte{3}};
  w.Bytes(blob);
  w.Str("midway");
  w.Str("");
  auto buffer = w.Take();

  WireReader r(buffer);
  auto got = r.Bytes();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[1], std::byte{2});
  EXPECT_EQ(r.Str(), "midway");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.ok());
}

TEST(WireTest, VarintRoundtripAndSizes) {
  const uint64_t values[] = {0, 1, 127, 128, 16383, 16384, UINT32_MAX, UINT64_MAX};
  const size_t sizes[] = {1, 1, 1, 2, 2, 3, 5, kMaxVarintBytes};
  for (size_t i = 0; i < std::size(values); ++i) {
    WireWriter w;
    w.VarU64(values[i]);
    auto buffer = w.Take();
    EXPECT_EQ(buffer.size(), sizes[i]) << values[i];
    WireReader r(buffer);
    EXPECT_EQ(r.VarU64(), values[i]);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
  }
  const int64_t signed_values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : signed_values) {
    WireWriter w;
    w.VarI64(v);
    auto buffer = w.Take();
    if (v >= -64 && v < 64) {
      EXPECT_EQ(buffer.size(), 1u) << v;
    }
    WireReader r(buffer);
    EXPECT_EQ(r.VarI64(), v);
    EXPECT_TRUE(r.ok());
  }
}

std::vector<std::byte> ByteVec(std::initializer_list<uint8_t> bytes) {
  std::vector<std::byte> out;
  for (uint8_t b : bytes) out.push_back(static_cast<std::byte>(b));
  return out;
}

TEST(WireTest, MalformedVarintsRejected) {
  const std::vector<std::byte> bad[] = {
      ByteVec({0x80, 0x00}),  // non-minimal: a zero final group
      ByteVec({0xFF, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}),  // 11 bytes
      ByteVec({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02}),  // past 2^64
      ByteVec({0x80, 0x80}),  // truncated mid-varint
      ByteVec({}),
  };
  for (const auto& frame : bad) {
    WireReader r(frame);
    EXPECT_EQ(r.VarU64(), 0u);
    EXPECT_FALSE(r.ok()) << frame.size() << " bytes";
  }
  // VarU32 rejects a well-formed varint whose value does not fit in 32 bits.
  WireWriter w;
  w.VarU64(uint64_t{UINT32_MAX} + 1);
  auto wide = w.Take();
  WireReader r(wide);
  EXPECT_EQ(r.VarU32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, ReadPastEndSetsStickyError) {
  WireWriter w;
  w.U16(7);
  auto buffer = w.Take();
  WireReader r(buffer);
  EXPECT_EQ(r.U16(), 7);
  EXPECT_EQ(r.U32(), 0u);  // past end: zero value
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U8(), 0u);  // sticky
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, TruncatedBlobIsSafe) {
  WireWriter w;
  w.U32(1000);  // claims 1000 bytes follow
  w.U8(1);      // but only one does
  auto buffer = w.Take();
  WireReader r(buffer);
  auto blob = r.Bytes();
  EXPECT_TRUE(blob.empty());
  EXPECT_FALSE(r.ok());
}

TEST(WireTest, HugeClaimedLengthDoesNotOverflow) {
  WireWriter w;
  w.U32(0xFFFFFFFFu);
  auto buffer = w.Take();
  WireReader r(buffer);
  auto blob = r.Bytes();
  EXPECT_TRUE(blob.empty());
  EXPECT_FALSE(r.ok());
}

// --- Frame header (protocol magic + version) -----------------------------------------------

TEST(WireHeaderTest, HeaderRoundtrips) {
  WireWriter w;
  WriteWireHeader(&w);
  w.U32(0xFEEDFACE);
  auto buffer = w.Take();
  ASSERT_EQ(buffer.size(), kWireHeaderBytes + 4);

  WireReader r(buffer);
  EXPECT_EQ(ReadWireHeader(&r), WireHeaderStatus::kOk);
  EXPECT_EQ(r.U32(), 0xFEEDFACEu);
  EXPECT_TRUE(r.ok());
}

TEST(WireHeaderTest, BadMagicRejectedWithClearError) {
  WireWriter w;
  w.U16(0xABCD);  // not kWireMagic
  w.U8(kWireVersion);
  auto buffer = w.Take();

  WireReader r(buffer);
  const WireHeaderStatus status = ReadWireHeader(&r);
  EXPECT_EQ(status, WireHeaderStatus::kBadMagic);
  const std::string error = WireHeaderError(status, buffer);
  EXPECT_NE(error.find("0xABCD"), std::string::npos) << error;
  EXPECT_NE(error.find("0x4D57"), std::string::npos) << error;
  EXPECT_NE(error.find("not speaking the midway protocol"), std::string::npos) << error;
}

TEST(WireHeaderTest, VersionMismatchRejectedWithBothVersions) {
  WireWriter w;
  w.U16(kWireMagic);
  w.U8(kWireVersion + 1);  // a peer from a future build
  auto buffer = w.Take();

  WireReader r(buffer);
  const WireHeaderStatus status = ReadWireHeader(&r);
  EXPECT_EQ(status, WireHeaderStatus::kBadVersion);
  const std::string error = WireHeaderError(status, buffer);
  EXPECT_NE(error.find("v" + std::to_string(kWireVersion + 1)), std::string::npos) << error;
  EXPECT_NE(error.find("v" + std::to_string(kWireVersion)), std::string::npos) << error;
}

TEST(WireHeaderTest, TruncatedHeaderRejected) {
  WireWriter w;
  w.U16(kWireMagic);  // only 2 of the 3 header bytes
  auto buffer = w.Take();

  WireReader r(buffer);
  const WireHeaderStatus status = ReadWireHeader(&r);
  EXPECT_EQ(status, WireHeaderStatus::kTruncated);
  EXPECT_NE(WireHeaderError(status, buffer).find("2 bytes"), std::string::npos);

  WireReader empty(std::span<const std::byte>{});
  EXPECT_EQ(ReadWireHeader(&empty), WireHeaderStatus::kTruncated);
}

class WireFuzzTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: any sequence of typed writes reads back identically.
TEST_P(WireFuzzTest, RandomSequenceRoundtrips) {
  SplitMix64 rng(GetParam());
  struct Item {
    int kind;
    uint64_t value;
    std::vector<std::byte> blob;
  };
  std::vector<Item> items;
  WireWriter w;
  for (int i = 0; i < 200; ++i) {
    Item item;
    item.kind = static_cast<int>(rng.NextBounded(5));
    switch (item.kind) {
      case 0:
        item.value = rng.Next() & 0xFF;
        w.U8(static_cast<uint8_t>(item.value));
        break;
      case 1:
        item.value = rng.Next() & 0xFFFF;
        w.U16(static_cast<uint16_t>(item.value));
        break;
      case 2:
        item.value = rng.Next() & 0xFFFFFFFF;
        w.U32(static_cast<uint32_t>(item.value));
        break;
      case 3:
        item.value = rng.Next();
        w.U64(item.value);
        break;
      case 4: {
        size_t len = rng.NextBounded(64);
        item.blob.resize(len);
        for (auto& b : item.blob) b = static_cast<std::byte>(rng.Next());
        w.Bytes(item.blob);
        break;
      }
    }
    items.push_back(std::move(item));
  }
  auto buffer = w.Take();
  WireReader r(buffer);
  for (const Item& item : items) {
    switch (item.kind) {
      case 0:
        EXPECT_EQ(r.U8(), item.value);
        break;
      case 1:
        EXPECT_EQ(r.U16(), item.value);
        break;
      case 2:
        EXPECT_EQ(r.U32(), item.value);
        break;
      case 3:
        EXPECT_EQ(r.U64(), item.value);
        break;
      case 4: {
        auto got = r.Bytes();
        ASSERT_EQ(got.size(), item.blob.size());
        EXPECT_TRUE(std::equal(got.begin(), got.end(), item.blob.begin()));
        break;
      }
    }
  }
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

// Property: a reader over a random prefix of a valid buffer never reads out of bounds and
// reports an error (or clean end) instead.
TEST_P(WireFuzzTest, TruncationNeverCrashes) {
  SplitMix64 rng(GetParam() * 1000);
  WireWriter w;
  for (int i = 0; i < 50; ++i) {
    w.U64(rng.Next());
    std::vector<std::byte> blob(rng.NextBounded(32));
    w.Bytes(blob);
  }
  auto buffer = w.Take();
  for (size_t cut = 0; cut < buffer.size(); cut += 7) {
    WireReader r(std::span<const std::byte>(buffer.data(), cut));
    for (int i = 0; i < 50 && r.ok(); ++i) {
      r.U64();
      r.Bytes();
    }
    // No crash == pass; most cuts end in error state.
  }
}

}  // namespace
}  // namespace midway
