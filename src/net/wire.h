// Little-endian wire encoding for DSM protocol messages.
//
// The encoding is deliberately simple: fixed-width little-endian integers, LEB128 varints
// (with zigzag for signed deltas), and length-prefixed byte blobs. Decoding is
// bounds-checked; reading past the end of a buffer, or an overlong or out-of-range varint,
// sets a sticky error flag and yields zero values, so malformed frames cannot cause
// out-of-bounds access.
#ifndef MIDWAY_SRC_NET_WIRE_H_
#define MIDWAY_SRC_NET_WIRE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "src/common/check.h"

namespace midway {

// --- Protocol frame header ----------------------------------------------------------------
// Every top-level frame begins with a two-byte magic and a one-byte protocol version, so a
// peer speaking a different build (or random garbage hitting the port) is rejected with a
// clear diagnostic instead of being parsed as message payload. The reliability sublayer wraps
// already-headered application frames; the duplication costs three bytes and keeps every
// decode entry point independently checkable.
inline constexpr uint16_t kWireMagic = 0x4D57;  // "MW"
inline constexpr uint8_t kWireVersion = 6;  // compact update-set framing, leaf-trimmed releases
inline constexpr size_t kWireHeaderBytes = 3;

enum class WireHeaderStatus : uint8_t { kOk = 0, kTruncated, kBadMagic, kBadVersion };

// Human-readable reason for a rejected header ("bad magic 0xABCD (want 0x4D57)").
std::string WireHeaderError(WireHeaderStatus status, std::span<const std::byte> frame);

// A u64 varint needs at most ten 7-bit groups.
inline constexpr size_t kMaxVarintBytes = 10;

// Grows into a contiguous buffer via bulk memcpy (never per-byte push_back). A writer with
// zero-copy enabled may additionally hold *external segments*: payload spans recorded by
// reference instead of being copied in. Such a frame is consumed either as a scatter-gather
// list (Segments(), fed to Transport::SendV/writev) or flattened once by Take(). The
// produced bytes are identical either way — external segments change how a frame is sent,
// not what is sent.
class WireWriter {
 public:
  // Payloads shorter than this are copied inline even under zero-copy: a tiny iovec costs
  // more in syscall bookkeeping than one small memcpy.
  static constexpr size_t kZeroCopyMinBytes = 64;

  WireWriter() = default;
  // Pooled reuse: adopts `pooled`'s capacity (contents are cleared), so a steady-state send
  // path never reallocates.
  explicit WireWriter(std::vector<std::byte>&& pooled) : buffer_(std::move(pooled)) {
    buffer_.clear();
  }

  WireWriter(WireWriter&&) = default;
  WireWriter& operator=(WireWriter&&) = default;

  // Allow RawZeroCopy to record external segments instead of copying. Only enable for
  // frames that are sent while the referenced payload memory is still pinned (see
  // docs/INTERNALS.md payload lifetime rules).
  void EnableZeroCopy() { zero_copy_ = true; }

  void U8(uint8_t v) { AppendLE(v); }
  void U16(uint16_t v) { AppendLE(v); }
  void U32(uint32_t v) { AppendLE(v); }
  void U64(uint64_t v) { AppendLE(v); }
  void I64(int64_t v) { AppendLE(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    AppendLE(bits);
  }
  // Unsigned LEB128: seven bits per byte, low group first, high bit set on all but the last.
  void VarU64(uint64_t v) {
    std::byte tmp[kMaxVarintBytes];
    size_t n = 0;
    for (; v >= 0x80; v >>= 7) tmp[n++] = static_cast<std::byte>((v & 0x7F) | 0x80);
    tmp[n++] = static_cast<std::byte>(v);
    std::memcpy(Grow(n), tmp, n);
  }
  // Signed value as a zigzag varint (0, -1, 1, -2, ... -> 0, 1, 2, 3, ...), so small deltas
  // of either sign take one byte.
  void VarI64(int64_t v) {
    VarU64((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
  }

  // Length-prefixed blob (u32 length).
  void Bytes(std::span<const std::byte> data) {
    U32(static_cast<uint32_t>(data.size()));
    Raw(data);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    Raw({p, s.size()});
  }

  // Raw bytes with no length prefix (caller encodes the length separately).
  void Raw(std::span<const std::byte> data) {
    if (data.empty()) return;
    std::memcpy(Grow(data.size()), data.data(), data.size());
  }

  // Like Raw, but under EnableZeroCopy large payloads are recorded as external segments —
  // the bytes are gathered by the transport (or by Take()) without ever being copied into
  // this buffer. The caller guarantees `data` stays valid and unchanged until the frame has
  // been consumed.
  void RawZeroCopy(std::span<const std::byte> data) {
    if (!zero_copy_ || data.size() < kZeroCopyMinBytes) {
      Raw(data);
      return;
    }
    ext_.push_back(ExtSeg{buffer_.size(), data});
    external_bytes_ += data.size();
  }

  // Total frame size, external segments included.
  size_t Size() const { return buffer_.size() + external_bytes_; }
  bool HasExternalSegments() const { return !ext_.empty(); }

  // Contiguous view; only valid while the frame has no external segments (all flat Encode
  // paths, e.g. checkpointing).
  const std::vector<std::byte>& Buffer() const {
    MIDWAY_CHECK(ext_.empty()) << " Buffer() on a frame with external segments";
    return buffer_;
  }

  // The frame as an ordered scatter-gather list: runs of the internal buffer interleaved
  // with the external payload spans, in write order. Views are valid while this writer and
  // the external payloads live.
  std::vector<std::span<const std::byte>> Segments() const {
    std::vector<std::span<const std::byte>> segs;
    segs.reserve(2 * ext_.size() + 1);
    size_t pos = 0;
    for (const ExtSeg& e : ext_) {
      if (e.at > pos) {
        segs.push_back({buffer_.data() + pos, e.at - pos});
        pos = e.at;
      }
      segs.push_back(e.bytes);
    }
    if (pos < buffer_.size()) {
      segs.push_back({buffer_.data() + pos, buffer_.size() - pos});
    }
    return segs;
  }

  // Flattens into one owned vector. Without external segments this is a move (no copy);
  // with them it gathers exactly once.
  std::vector<std::byte> Take() {
    if (ext_.empty()) {
      return std::move(buffer_);
    }
    std::vector<std::byte> flat;
    flat.reserve(Size());
    size_t pos = 0;
    for (const ExtSeg& e : ext_) {
      flat.insert(flat.end(), buffer_.begin() + static_cast<ptrdiff_t>(pos),
                  buffer_.begin() + static_cast<ptrdiff_t>(e.at));
      pos = e.at;
      flat.insert(flat.end(), e.bytes.begin(), e.bytes.end());
    }
    flat.insert(flat.end(), buffer_.begin() + static_cast<ptrdiff_t>(pos), buffer_.end());
    ext_.clear();
    external_bytes_ = 0;
    return flat;
  }

  // Returns the internal buffer (cleared, capacity intact) for pooled reuse after the frame
  // was consumed via Segments().
  std::vector<std::byte> ReclaimBuffer() {
    ext_.clear();
    external_bytes_ = 0;
    buffer_.clear();
    return std::move(buffer_);
  }

 private:
  struct ExtSeg {
    size_t at;  // logical insertion offset within buffer_ (stable across growth)
    std::span<const std::byte> bytes;
  };

  // Extends the buffer by n bytes, returning the write cursor.
  std::byte* Grow(size_t n) {
    const size_t old = buffer_.size();
    buffer_.resize(old + n);
    return buffer_.data() + old;
  }

  template <typename T>
  void AppendLE(T v) {
    std::byte* dst = Grow(sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(dst, &v, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        dst[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
      }
    }
  }

  std::vector<std::byte> buffer_;
  std::vector<ExtSeg> ext_;
  size_t external_bytes_ = 0;
  bool zero_copy_ = false;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  uint8_t U8() { return ReadLE<uint8_t>(); }
  // Reads the next byte without consuming it (frame-type dispatch); 0 at end-of-buffer.
  uint8_t PeekU8() const {
    if (error_ || pos_ >= data_.size()) return 0;
    return static_cast<uint8_t>(data_[pos_]);
  }
  uint16_t U16() { return ReadLE<uint16_t>(); }
  uint32_t U32() { return ReadLE<uint32_t>(); }
  uint64_t U64() { return ReadLE<uint64_t>(); }
  int64_t I64() { return static_cast<int64_t>(ReadLE<uint64_t>()); }
  double F64() {
    uint64_t bits = ReadLE<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  // Rejects (sticky error, returns 0) a varint that runs past the buffer, needs more than
  // kMaxVarintBytes, overflows 64 bits, or is non-minimal (a trailing zero group): every
  // value has exactly one accepted encoding.
  uint64_t VarU64() {
    uint64_t v = 0;
    for (size_t i = 0; i < kMaxVarintBytes; ++i) {
      if (error_ || pos_ >= data_.size()) break;
      const auto b = static_cast<uint8_t>(data_[pos_++]);
      const uint64_t group = b & 0x7F;
      if (i == kMaxVarintBytes - 1 && group > 1) break;  // bits past 2^64
      v |= group << (7 * i);
      if ((b & 0x80) == 0) {
        if (b == 0 && i > 0) break;  // overlong: a zero final group
        return v;
      }
    }
    error_ = true;
    return 0;
  }
  // A varint that must fit in 32 bits (region ids, lengths); larger values are rejected.
  uint32_t VarU32() {
    const uint64_t v = VarU64();
    if (v > UINT32_MAX) {
      error_ = true;
      return 0;
    }
    return static_cast<uint32_t>(v);
  }
  int64_t VarI64() {
    const uint64_t z = VarU64();
    return static_cast<int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }

  // Length-prefixed blob. Returns a view into the underlying buffer (valid while the buffer
  // lives); on error returns an empty span.
  std::span<const std::byte> Bytes() {
    uint32_t n = U32();
    return Raw(n);
  }

  std::string Str() {
    auto span = Bytes();
    return std::string(reinterpret_cast<const char*>(span.data()), span.size());
  }

  // Raw bytes with no length prefix.
  std::span<const std::byte> Raw(size_t n) {
    if (error_ || data_.size() - pos_ < n) {
      error_ = true;
      return {};
    }
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  bool ok() const { return !error_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t Remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T ReadLE() {
    if (error_ || data_.size() - pos_ < sizeof(T)) {
      error_ = true;
      return T{};
    }
    T v{};
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, data_.data() + pos_, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        v = static_cast<T>(v |
                           (static_cast<T>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i)));
      }
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  size_t pos_ = 0;
  bool error_ = false;
};

// Prepends the frame header; the first call every top-level encoder makes.
inline void WriteWireHeader(WireWriter* w) {
  w->U16(kWireMagic);
  w->U8(kWireVersion);
}

// Consumes and validates the frame header. On any non-kOk status the reader's position is
// unspecified and the frame must be discarded.
inline WireHeaderStatus ReadWireHeader(WireReader* r) {
  if (r->Remaining() < kWireHeaderBytes) return WireHeaderStatus::kTruncated;
  if (r->U16() != kWireMagic) return WireHeaderStatus::kBadMagic;
  if (r->U8() != kWireVersion) return WireHeaderStatus::kBadVersion;
  return WireHeaderStatus::kOk;
}

inline std::string WireHeaderError(WireHeaderStatus status, std::span<const std::byte> frame) {
  auto hex = [](uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llX", static_cast<unsigned long long>(v));
    return std::string(buf);
  };
  switch (status) {
    case WireHeaderStatus::kOk:
      return "ok";
    case WireHeaderStatus::kTruncated:
      return "frame shorter than the " + std::to_string(kWireHeaderBytes) +
             "-byte magic/version header (" + std::to_string(frame.size()) + " bytes)";
    case WireHeaderStatus::kBadMagic: {
      const uint16_t got = frame.size() >= 2
                               ? static_cast<uint16_t>(static_cast<uint8_t>(frame[0]) |
                                                       (static_cast<uint8_t>(frame[1]) << 8))
                               : 0;
      return "bad protocol magic " + hex(got) + " (want " + hex(kWireMagic) +
             "): peer is not speaking the midway protocol";
    }
    case WireHeaderStatus::kBadVersion: {
      const uint8_t got = frame.size() >= 3 ? static_cast<uint8_t>(frame[2]) : 0;
      return "protocol version mismatch: peer speaks v" + std::to_string(got) +
             ", this build speaks v" + std::to_string(kWireVersion);
    }
  }
  return "?";
}

}  // namespace midway

#endif  // MIDWAY_SRC_NET_WIRE_H_
