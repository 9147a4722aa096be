#include "src/core/protocol.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/net/faulty_transport.h"

namespace midway {

// FaultyTransport's kMuteHeartbeats windows recognise liveness frames by these copied tags;
// a renumbered MsgType would otherwise silently turn every such window into a no-op.
static_assert(kHeartbeatTag == static_cast<uint8_t>(MsgType::kHeartbeat));
static_assert(kHeartbeatAckTag == static_cast<uint8_t>(MsgType::kHeartbeatAck));

namespace {

// Update-set flags byte.
constexpr uint8_t kSetHasTs = 1;  // entries carry ts deltas (some entry has a nonzero ts)

void EncodeLoggedUpdates(WireWriter* w, const std::vector<LoggedUpdate>& log) {
  w->U32(static_cast<uint32_t>(log.size()));
  for (const LoggedUpdate& entry : log) {
    w->U32(entry.incarnation);
    EncodeUpdateSet(w, entry.updates);
  }
}

bool DecodeLoggedUpdates(WireReader* r, std::vector<LoggedUpdate>* out) {
  uint32_t n = r->U32();
  out->clear();
  // Never trust a wire-supplied count for allocation: each entry needs >= 6 bytes (u32
  // incarnation, then an update set's count varint and flags byte).
  out->reserve(std::min<size_t>(n, r->Remaining() / 6));
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    LoggedUpdate entry;
    entry.incarnation = r->U32();
    if (!DecodeUpdateSet(r, &entry.updates)) return false;
    out->push_back(std::move(entry));
  }
  return r->ok();
}

// Writes every chunk except the one from origin `omit` (kNoNode omits none).
void EncodeBarrierChunks(WireWriter* w, const std::vector<BarrierChunk>& chunks,
                         NodeId omit = kNoNode) {
  const auto omitted = static_cast<uint32_t>(
      std::count_if(chunks.begin(), chunks.end(),
                    [omit](const BarrierChunk& c) { return c.node == omit; }));
  w->U32(static_cast<uint32_t>(chunks.size()) - omitted);
  for (const BarrierChunk& c : chunks) {
    if (c.node == omit) continue;
    w->U16(c.node);
    w->U64(c.enter_ts);
    EncodeUpdateSet(w, c.updates);
  }
}

bool DecodeBarrierChunks(WireReader* r, std::vector<BarrierChunk>* out) {
  uint32_t n = r->U32();
  out->clear();
  // Each chunk needs >= 12 bytes on the wire (node, enter_ts, then an update set's count
  // varint and flags byte); cap the reservation against corrupt counts.
  out->reserve(std::min<size_t>(n, r->Remaining() / 12));
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    BarrierChunk c;
    c.node = r->U16();
    c.enter_ts = r->U64();
    if (!DecodeUpdateSet(r, &c.updates)) return false;
    out->push_back(std::move(c));
  }
  return r->ok();
}

// Starts a top-level frame: magic/version header, then the message type tag.
WireWriter BeginFrame(MsgType type) {
  WireWriter w;
  WriteWireHeader(&w);
  w.U8(static_cast<uint8_t>(type));
  return w;
}

// Zero-copy variant: adopts a pooled buffer and keeps large payloads as borrowed segments.
WireWriter BeginFrameZ(MsgType type, std::vector<std::byte> pooled) {
  WireWriter w(std::move(pooled));
  w.EnableZeroCopy();
  WriteWireHeader(&w);
  w.U8(static_cast<uint8_t>(type));
  return w;
}

// Consumes the header and the expected type tag; false if either is wrong. All decoders run
// through here so a mismatched peer fails at every entry point, not just dispatch.
bool BeginDecode(WireReader* r, MsgType expected) {
  if (ReadWireHeader(r) != WireHeaderStatus::kOk) return false;
  return r->U8() == static_cast<uint8_t>(expected) && r->ok();
}

}  // namespace

// Update-set framing: [varint count][u8 flags], then per entry
//   [varint length << 1 | new_region] [varint region, iff new_region]
//   [zigzag varint offset - base] [zigzag varint ts - previous ts, iff kSetHasTs] [payload]
// new_region compares against the previous entry's region (0 before the first entry);
// `base` is the previous entry's end in the same region (0 at the start and after a region
// change); the previous ts starts at 0. Ascending same-region diff runs thus cost two
// header bytes per entry (docs/INTERNALS.md §9).
void EncodeUpdateSet(WireWriter* w, const UpdateSet& set) {
  uint8_t flags = 0;
  for (const UpdateEntry& e : set) {
    if (e.ts != 0) {
      flags |= kSetHasTs;
      break;
    }
  }
  w->VarU64(set.size());
  w->U8(flags);
  RegionId region = 0;
  uint64_t base = 0;
  uint64_t ts = 0;
  for (const UpdateEntry& e : set) {
    MIDWAY_DCHECK(e.data.size() == e.length);
    const bool new_region = e.addr.region != region;
    w->VarU64(uint64_t{e.length} << 1 | (new_region ? 1 : 0));
    if (new_region) {
      region = e.addr.region;
      base = 0;
      w->VarU64(region);
    }
    w->VarI64(static_cast<int64_t>(e.addr.offset) - static_cast<int64_t>(base));
    base = uint64_t{e.addr.offset} + e.length;
    if ((flags & kSetHasTs) != 0) {
      w->VarI64(static_cast<int64_t>(e.ts - ts));
      ts = e.ts;
    }
    w->RawZeroCopy(e.data);
  }
}

bool DecodeUpdateSet(WireReader* r, UpdateSet* out) {
  out->clear();
  const uint64_t n = r->VarU64();
  const uint8_t flags = r->U8();
  if (!r->ok() || (flags & ~kSetHasTs) != 0) return false;
  // Every entry takes at least its length and offset varints (and its ts delta when the set
  // carries timestamps), so a count the rest of the frame cannot hold is corrupt. Checking
  // it up front also bounds the reservation.
  const size_t min_entry_bytes = (flags & kSetHasTs) != 0 ? 3 : 2;
  if (n > r->Remaining() / min_entry_bytes) return false;
  out->reserve(n);
  // Decoded payloads must outlive the frame buffer, so they are copied once into arena
  // chunks shared across the set (one allocation per ~64KB instead of one per entry).
  PayloadArena arena;
  RegionId region = 0;
  uint64_t base = 0;
  uint64_t ts = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t head = r->VarU64();
    if ((head >> 33) != 0) return false;  // length beyond u32
    if ((head & 1) != 0) {
      region = r->VarU32();
      base = 0;
    }
    const int64_t delta = r->VarI64();
    const uint64_t length = head >> 1;
    // The offset (base + delta) and the entry's end must both stay inside u32; base already
    // does, as the previous entry's checked end.
    if (delta < -static_cast<int64_t>(base) || delta > static_cast<int64_t>(UINT32_MAX - base)) {
      return false;
    }
    const uint64_t offset = base + static_cast<uint64_t>(delta);
    if (offset + length > UINT32_MAX) return false;
    UpdateEntry e;
    e.addr.region = region;
    e.addr.offset = static_cast<uint32_t>(offset);
    e.length = static_cast<uint32_t>(length);
    base = offset + length;
    if ((flags & kSetHasTs) != 0) {
      ts += static_cast<uint64_t>(r->VarI64());
      e.ts = ts;
    }
    auto data = r->Raw(e.length);
    if (!r->ok()) return false;
    e.BindCopy(data, &arena);
    out->push_back(std::move(e));
  }
  return r->ok();
}

void EncodeBinding(WireWriter* w, const Binding& binding) {
  w->U32(binding.version);
  w->U32(static_cast<uint32_t>(binding.ranges.size()));
  for (const GlobalRange& range : binding.ranges) {
    w->U32(range.addr.region);
    w->U32(range.addr.offset);
    w->U32(range.length);
  }
}

bool DecodeBinding(WireReader* r, Binding* out) {
  out->version = r->U32();
  uint32_t n = r->U32();
  out->ranges.clear();
  out->ranges.reserve(std::min<size_t>(n, r->Remaining() / 12));
  for (uint32_t i = 0; i < n && r->ok(); ++i) {
    GlobalRange range;
    range.addr.region = r->U32();
    range.addr.offset = r->U32();
    range.length = r->U32();
    out->ranges.push_back(range);
  }
  return r->ok();
}

std::vector<std::byte> Encode(MsgType type, const AcquireMsg& msg) {
  MIDWAY_CHECK(type == MsgType::kAcquireReq || type == MsgType::kForward);
  WireWriter w = BeginFrame(type);
  w.U32(msg.lock);
  w.U8(static_cast<uint8_t>(msg.mode));
  w.U16(msg.requester);
  w.U64(msg.last_seen_ts);
  w.U32(msg.last_seen_inc);
  w.U32(msg.binding_version);
  w.U64(msg.clock);
  w.U32(msg.epoch);
  return w.Take();
}

namespace {

void EncodeGrantBody(WireWriter* w, const GrantMsg& msg) {
  w->U32(msg.lock);
  w->U8(static_cast<uint8_t>(msg.mode));
  w->U16(msg.granter);
  w->U64(msg.grant_ts);
  w->U32(msg.incarnation);
  w->U32(msg.log_base);
  w->U8(msg.full_data ? 1 : 0);
  w->U32(msg.epoch);
  w->U8(msg.binding.has_value() ? 1 : 0);
  if (msg.binding.has_value()) {
    EncodeBinding(w, *msg.binding);
  }
  EncodeLoggedUpdates(w, msg.updates);
}

}  // namespace

std::vector<std::byte> Encode(const GrantMsg& msg) { return EncodeW(msg).Take(); }

WireWriter EncodeW(const GrantMsg& msg, std::vector<std::byte> pooled) {
  WireWriter w = BeginFrameZ(MsgType::kGrant, std::move(pooled));
  EncodeGrantBody(&w, msg);
  return w;
}

std::vector<std::byte> Encode(const ReadReleaseMsg& msg) {
  WireWriter w = BeginFrame(MsgType::kReadRelease);
  w.U32(msg.lock);
  w.U16(msg.reader);
  w.U64(msg.clock);
  w.U32(msg.epoch);
  return w.Take();
}

std::vector<std::byte> Encode(const BarrierEnterMsg& msg) { return EncodeW(msg).Take(); }

WireWriter EncodeW(const BarrierEnterMsg& msg, std::vector<std::byte> pooled) {
  WireWriter w = BeginFrameZ(MsgType::kBarrierEnter, std::move(pooled));
  w.U32(msg.barrier);
  w.U16(msg.node);
  w.U32(msg.round);
  w.U64(msg.clock);
  EncodeBarrierChunks(&w, msg.chunks);
  return w;
}

std::vector<std::byte> Encode(const BarrierReleaseMsg& msg) { return EncodeW(msg).Take(); }

WireWriter EncodeW(const BarrierReleaseMsg& msg, std::vector<std::byte> pooled) {
  WireWriter w = BeginFrameZ(MsgType::kBarrierRelease, std::move(pooled));
  w.U32(msg.barrier);
  w.U64(msg.release_ts);
  w.U32(msg.round);
  w.U16(msg.failed_node);
  w.U8(msg.catch_up ? 1 : 0);
  // Name an omitted origin only when its chunk is really left out of this frame.
  const bool present = std::any_of(msg.chunks.begin(), msg.chunks.end(),
                                   [&](const BarrierChunk& c) { return c.node == msg.omitted_chunk; });
  const NodeId omit = present ? msg.omitted_chunk : kNoNode;
  w.U16(omit);
  EncodeBarrierChunks(&w, msg.chunks, omit);
  return w;
}

std::vector<std::byte> Encode(const HeartbeatMsg& msg) {
  WireWriter w = BeginFrame(MsgType::kHeartbeat);
  w.U16(msg.node);
  w.U16(msg.incarnation);
  w.U64(msg.send_ts_us);
  return w.Take();
}

std::vector<std::byte> Encode(const HeartbeatAckMsg& msg) {
  WireWriter w = BeginFrame(MsgType::kHeartbeatAck);
  w.U16(msg.node);
  w.U16(msg.incarnation);
  w.U64(msg.echo_ts_us);
  return w.Take();
}

std::vector<std::byte> Encode(const JoinReqMsg& msg) {
  WireWriter w = BeginFrame(MsgType::kJoinReq);
  w.U16(msg.node);
  w.U16(msg.old_incarnation);
  w.U16(msg.new_incarnation);
  w.U64(msg.clock);
  return w.Take();
}

std::vector<std::byte> Encode(const RecoveryBeginMsg& msg) {
  WireWriter w = BeginFrame(MsgType::kRecoveryBegin);
  w.U32(msg.epoch);
  w.U16(msg.dead);
  w.U16(msg.dead_incarnation);
  w.U16(msg.new_incarnation);
  w.U16(msg.coordinator);
  w.U64(msg.clock);
  return w.Take();
}

std::vector<std::byte> Encode(const RecoveryReportMsg& msg) {
  WireWriter w = BeginFrame(MsgType::kRecoveryReport);
  w.U32(msg.epoch);
  w.U16(msg.node);
  w.U64(msg.clock);
  w.U32(static_cast<uint32_t>(msg.locks.size()));
  for (const LockStateReport& lk : msg.locks) {
    w.U32(lk.lock);
    w.U8(lk.flags);
    w.U32(lk.incarnation);
    w.U32(lk.last_seen_inc);
    w.U64(lk.last_seen_ts);
    w.U32(lk.binding_version);
    w.U32(lk.rollback_inc);
  }
  return w.Take();
}

std::vector<std::byte> Encode(const RecoveryCommitMsg& msg) {
  WireWriter w = BeginFrame(MsgType::kRecoveryCommit);
  w.U32(msg.epoch);
  w.U16(msg.dead);
  w.U16(msg.new_incarnation);
  w.U16(msg.coordinator);
  w.U64(msg.clock);
  w.U32(static_cast<uint32_t>(msg.locks.size()));
  for (const LockVerdict& lk : msg.locks) {
    w.U32(lk.lock);
    w.U16(lk.owner);
    w.U32(lk.incarnation);
    w.U16(lk.outstanding_shared);
  }
  w.U16(static_cast<uint16_t>(msg.member_dead.size()));
  for (const uint8_t dead : msg.member_dead) w.U8(dead);
  for (const uint16_t inc : msg.member_inc) w.U16(inc);
  return w.Take();
}

bool PeekType(std::span<const std::byte> frame, MsgType* out) {
  WireReader r(frame);
  if (ReadWireHeader(&r) != WireHeaderStatus::kOk) return false;
  if (r.Remaining() == 0) return false;
  *out = static_cast<MsgType>(r.PeekU8());
  return true;
}

std::vector<std::byte> EncodeRelData(uint32_t seq, uint32_t cum_ack, uint16_t dst_inc,
                                     std::span<const std::byte> app_frame) {
  WireWriter w;
  WriteWireHeader(&w);
  w.U8(static_cast<uint8_t>(RelType::kData));
  w.U32(seq);
  w.U32(cum_ack);
  w.U16(dst_inc);
  w.Raw(app_frame);
  return w.Take();
}

std::vector<std::byte> EncodeRelAck(uint32_t cum_ack, uint16_t dst_inc) {
  WireWriter w;
  WriteWireHeader(&w);
  w.U8(static_cast<uint8_t>(RelType::kAck));
  w.U32(cum_ack);
  w.U16(dst_inc);
  return w.Take();
}

bool DecodeRelFrame(std::span<const std::byte> frame, RelHeader* out,
                    std::span<const std::byte>* payload) {
  WireReader r(frame);
  if (ReadWireHeader(&r) != WireHeaderStatus::kOk) return false;
  const uint8_t tag = r.PeekU8();
  *payload = {};
  if (tag == static_cast<uint8_t>(RelType::kData)) {
    (void)r.U8();
    out->type = RelType::kData;
    out->seq = r.U32();
    out->cum_ack = r.U32();
    out->dst_inc = r.U16();
    if (!r.ok()) return false;
    *payload = r.Raw(r.Remaining());
    return r.ok();
  }
  if (tag == static_cast<uint8_t>(RelType::kAck)) {
    (void)r.U8();
    out->type = RelType::kAck;
    out->seq = 0;
    out->cum_ack = r.U32();
    out->dst_inc = r.U16();
    return r.ok();
  }
  return false;
}

bool Decode(std::span<const std::byte> frame, AcquireMsg* out) {
  WireReader r(frame);
  if (ReadWireHeader(&r) != WireHeaderStatus::kOk) return false;
  const uint8_t tag = r.U8();
  if (tag != static_cast<uint8_t>(MsgType::kAcquireReq) &&
      tag != static_cast<uint8_t>(MsgType::kForward)) {
    return false;
  }
  out->lock = r.U32();
  out->mode = static_cast<LockMode>(r.U8());
  out->requester = r.U16();
  out->last_seen_ts = r.U64();
  out->last_seen_inc = r.U32();
  out->binding_version = r.U32();
  out->clock = r.U64();
  out->epoch = r.U32();
  return r.ok();
}

bool Decode(std::span<const std::byte> frame, GrantMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kGrant)) return false;
  out->lock = r.U32();
  out->mode = static_cast<LockMode>(r.U8());
  out->granter = r.U16();
  out->grant_ts = r.U64();
  out->incarnation = r.U32();
  out->log_base = r.U32();
  out->full_data = r.U8() != 0;
  out->epoch = r.U32();
  bool has_binding = r.U8() != 0;
  if (has_binding) {
    Binding binding;
    if (!DecodeBinding(&r, &binding)) return false;
    out->binding = std::move(binding);
  } else {
    out->binding.reset();
  }
  return DecodeLoggedUpdates(&r, &out->updates);
}

bool Decode(std::span<const std::byte> frame, ReadReleaseMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kReadRelease)) return false;
  out->lock = r.U32();
  out->reader = r.U16();
  out->clock = r.U64();
  out->epoch = r.U32();
  return r.ok();
}

bool Decode(std::span<const std::byte> frame, BarrierEnterMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kBarrierEnter)) return false;
  out->barrier = r.U32();
  out->node = r.U16();
  out->round = r.U32();
  out->clock = r.U64();
  return DecodeBarrierChunks(&r, &out->chunks);
}

bool Decode(std::span<const std::byte> frame, BarrierReleaseMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kBarrierRelease)) return false;
  out->barrier = r.U32();
  out->release_ts = r.U64();
  out->round = r.U32();
  out->failed_node = r.U16();
  out->catch_up = r.U8() != 0;
  out->omitted_chunk = r.U16();
  return DecodeBarrierChunks(&r, &out->chunks);
}

bool Decode(std::span<const std::byte> frame, HeartbeatMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kHeartbeat)) return false;
  out->node = r.U16();
  out->incarnation = r.U16();
  out->send_ts_us = r.U64();
  return r.ok();
}

bool Decode(std::span<const std::byte> frame, HeartbeatAckMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kHeartbeatAck)) return false;
  out->node = r.U16();
  out->incarnation = r.U16();
  out->echo_ts_us = r.U64();
  return r.ok();
}

bool Decode(std::span<const std::byte> frame, JoinReqMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kJoinReq)) return false;
  out->node = r.U16();
  out->old_incarnation = r.U16();
  out->new_incarnation = r.U16();
  out->clock = r.U64();
  return r.ok();
}

bool Decode(std::span<const std::byte> frame, RecoveryBeginMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kRecoveryBegin)) return false;
  out->epoch = r.U32();
  out->dead = r.U16();
  out->dead_incarnation = r.U16();
  out->new_incarnation = r.U16();
  out->coordinator = r.U16();
  out->clock = r.U64();
  return r.ok();
}

bool Decode(std::span<const std::byte> frame, RecoveryReportMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kRecoveryReport)) return false;
  out->epoch = r.U32();
  out->node = r.U16();
  out->clock = r.U64();
  uint32_t n = r.U32();
  out->locks.clear();
  out->locks.reserve(std::min<size_t>(n, r.Remaining() / 29));
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    LockStateReport lk;
    lk.lock = r.U32();
    lk.flags = r.U8();
    lk.incarnation = r.U32();
    lk.last_seen_inc = r.U32();
    lk.last_seen_ts = r.U64();
    lk.binding_version = r.U32();
    lk.rollback_inc = r.U32();
    out->locks.push_back(lk);
  }
  return r.ok();
}

bool Decode(std::span<const std::byte> frame, RecoveryCommitMsg* out) {
  WireReader r(frame);
  if (!BeginDecode(&r, MsgType::kRecoveryCommit)) return false;
  out->epoch = r.U32();
  out->dead = r.U16();
  out->new_incarnation = r.U16();
  out->coordinator = r.U16();
  out->clock = r.U64();
  uint32_t n = r.U32();
  out->locks.clear();
  out->locks.reserve(std::min<size_t>(n, r.Remaining() / 12));
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    LockVerdict lk;
    lk.lock = r.U32();
    lk.owner = r.U16();
    lk.incarnation = r.U32();
    lk.outstanding_shared = r.U16();
    out->locks.push_back(lk);
  }
  const uint16_t members = r.U16();
  out->member_dead.clear();
  out->member_inc.clear();
  out->member_dead.reserve(std::min<size_t>(members, r.Remaining()));
  out->member_inc.reserve(std::min<size_t>(members, r.Remaining()));
  for (uint16_t i = 0; i < members && r.ok(); ++i) out->member_dead.push_back(r.U8());
  for (uint16_t i = 0; i < members && r.ok(); ++i) out->member_inc.push_back(r.U16());
  return r.ok();
}

}  // namespace midway
