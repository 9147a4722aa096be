// DSM protocol messages and their wire encoding.
//
// Lock transfer (entry consistency, paper §3):
//   requester --AcquireReq--> home --Forward--> current owner --Grant--> requester
// The home node (consistent hashing, Runtime::HomeOf / src/core/shard.h) tracks only the
// distributed-queue tail; data and updates flow directly from the previous owner to the
// requester. Non-exclusive holders release eagerly with ReadRelease (sent to the granter).
// Barriers run over a k-ary reduction/broadcast tree (docs/INTERNALS.md §11): enters flow
// up the tree as per-origin BarrierChunks — each internal node merges its children's chunks
// with its own and forwards one combined BarrierEnter — and the effective root (lowest live
// node id) builds the merged BarrierRelease once and broadcasts it back down the same tree.
// Dead/buried nodes are routed around by re-homing orphaned subtrees to the nearest live
// heap ancestor; no node handles more than fanout+1 messages per round.
#ifndef MIDWAY_SRC_CORE_PROTOCOL_H_
#define MIDWAY_SRC_CORE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/update.h"
#include "src/net/transport.h"
#include "src/net/wire.h"
#include "src/sync/binding.h"

namespace midway {

using LockId = uint32_t;
using BarrierId = uint32_t;

enum class LockMode : uint8_t { kExclusive = 0, kShared = 1 };

enum class MsgType : uint8_t {
  kAcquireReq = 1,
  kForward = 2,
  kGrant = 3,
  kReadRelease = 4,
  kBarrierEnter = 5,
  kBarrierRelease = 6,
  // Crash-survival control plane (PR 2). Recovery messages flow over the reliable channel;
  // heartbeats and join requests are raw (unsequenced) frames — liveness traffic must not
  // depend on the very per-peer sequencing state a crash invalidates.
  kRecoveryBegin = 7,
  kRecoveryReport = 8,
  kRecoveryCommit = 9,
  kJoinReq = 10,
  kHeartbeat = 11,
  kHeartbeatAck = 12,
};

// --- Reliable delivery sublayer framing ---------------------------------------------------
// When the reliable channel is enabled (lossy transports), every protocol frame above is
// wrapped in a data frame carrying a per-(src, dst) sequence number and a piggybacked
// cumulative ack; standalone acks flow when there is no data to piggyback on. The tag values
// are disjoint from MsgType so a mixed stream is unambiguous.
enum class RelType : uint8_t {
  kData = 0x71,  // [tag][u32 seq][u32 cum_ack][app frame bytes...]
  kAck = 0x72,   // [tag][u32 cum_ack]
};

struct RelHeader {
  RelType type = RelType::kData;
  uint32_t seq = 0;      // data frames only; 1-based per (src, dst)
  uint32_t cum_ack = 0;  // highest sequence received contiguously from the destination
  uint16_t dst_inc = 0;  // destination node incarnation the sender believes; a restarted
                         //   receiver (higher incarnation) drops frames addressed to its
                         //   previous life, so stale retransmissions cannot poison the fresh
                         //   per-pair sequence space
};

// Sent by a requester to the lock's home node; the home forwards it (unchanged apart from
// the type tag) to the current distributed-queue tail.
struct AcquireMsg {
  LockId lock = 0;
  LockMode mode = LockMode::kExclusive;
  NodeId requester = 0;
  uint64_t last_seen_ts = 0;       // RT: logical time this node's copy was last consistent
  uint32_t last_seen_inc = 0;      // VM: incarnation last seen by this node
  uint32_t binding_version = 0;    // requester's view of the lock's data binding
  uint64_t clock = 0;              // sender's Lamport clock
  uint32_t epoch = 0;              // recovery epoch the sender was in; stale-epoch lock
                                   //   messages are dropped after a recovery commit

  friend bool operator==(const AcquireMsg&, const AcquireMsg&) = default;
};

struct GrantMsg {
  LockId lock = 0;
  LockMode mode = LockMode::kExclusive;
  NodeId granter = 0;
  uint64_t grant_ts = 0;      // Lamport time of the transfer
  uint32_t incarnation = 0;   // VM: incarnation the requester now holds
  uint32_t log_base = 0;      // VM: the carried incremental entries cover (log_base, inc];
                              //   on a full-data grant this hands the granter's history
                              //   depth to the receiver so serving capacity is preserved
  bool full_data = false;     // VM: the first update carries the complete bound data
                              //   (log miss / rebinding / oversized update chain)
  uint32_t epoch = 0;         // recovery epoch of the granter (see AcquireMsg::epoch)
  std::optional<Binding> binding;  // present when the requester's binding_version was stale
  std::vector<LoggedUpdate> updates;

  friend bool operator==(const GrantMsg&, const GrantMsg&) = default;
};

struct ReadReleaseMsg {
  LockId lock = 0;
  NodeId reader = 0;
  uint64_t clock = 0;
  uint32_t epoch = 0;

  friend bool operator==(const ReadReleaseMsg&, const ReadReleaseMsg&) = default;
};

// One origin node's contribution to a barrier round. Chunks keep per-origin attribution as
// enters are merged up the reduction tree: an internal node concatenates its children's
// chunks with its own instead of flattening, so the root can run race detection per origin
// and every receiver can skip applying its own writes back to itself.
struct BarrierChunk {
  NodeId node = 0;        // origin of these updates (not the relaying tree node)
  uint64_t enter_ts = 0;  // origin's Lamport time at BarrierWait
  UpdateSet updates;

  friend bool operator==(const BarrierChunk&, const BarrierChunk&) = default;
};

struct BarrierEnterMsg {
  BarrierId barrier = 0;
  NodeId node = 0;   // sender (the relaying tree node; chunks carry the origins)
  uint32_t round = 0;
  uint64_t clock = 0;  // sender's Lamport clock
  std::vector<BarrierChunk> chunks;

  friend bool operator==(const BarrierEnterMsg&, const BarrierEnterMsg&) = default;
};

// Sentinel for "no failed node" in barrier releases and membership reports.
inline constexpr NodeId kNoNode = 0xFFFF;

struct BarrierReleaseMsg {
  BarrierId barrier = 0;
  uint64_t release_ts = 0;
  uint32_t round = 0;
  NodeId failed_node = kNoNode;  // fail-fast policy: the dead node that aborted this barrier
  bool catch_up = false;  // point-to-point answer to a stale re-enter; never relayed down
  // Origin whose chunk the encoded frame leaves out, or kNoNode. A relay to a leaf child
  // omits the child's own chunk, which the child still holds and splices back on receipt.
  // The encoder writes it only when that chunk is present and skips the chunk; a decoded
  // frame that names its receiver therefore lacks the receiver's chunk.
  NodeId omitted_chunk = kNoNode;
  std::vector<BarrierChunk> chunks;  // merged once at the root, per origin, in origin order

  friend bool operator==(const BarrierReleaseMsg&, const BarrierReleaseMsg&) = default;
};

// --- Crash-survival control plane ---------------------------------------------------------
// Heartbeats are raw frames (no reliability wrapping): they are periodic, loss-tolerant by
// design, and must keep flowing while per-peer sequencing state is being rebuilt. send_ts_us
// is the sender's steady-clock microseconds, echoed back in the ack so the sender can measure
// RTT without synchronized clocks.
struct HeartbeatMsg {
  NodeId node = 0;
  uint16_t incarnation = 0;  // node restart count; a jump announces a rejoined peer
  uint64_t send_ts_us = 0;

  friend bool operator==(const HeartbeatMsg&, const HeartbeatMsg&) = default;
};

struct HeartbeatAckMsg {
  NodeId node = 0;
  uint16_t incarnation = 0;
  uint64_t echo_ts_us = 0;  // send_ts_us of the heartbeat being answered

  friend bool operator==(const HeartbeatAckMsg&, const HeartbeatAckMsg&) = default;
};

// Raw frame, like heartbeats: a restarted node announces itself before any per-pair
// reliability state exists for its new life. It is broadcast to every peer (the joiner's
// membership view died with it, so it cannot compute the designated coordinator); only the
// hash-designated coordinator starts the rejoin epoch.
struct JoinReqMsg {
  NodeId node = 0;
  uint16_t old_incarnation = 0;
  uint16_t new_incarnation = 0;
  uint64_t clock = 0;

  friend bool operator==(const JoinReqMsg&, const JoinReqMsg&) = default;
};

// Recovery: the hash-designated coordinator (the first live ring successor of
// ShardOwner(dead), see src/core/shard.h) declares a peer dead (lease expired) or rejoining,
// collects per-lock state reports from every live node, elects a new owner per orphaned lock
// (the survivor with the freshest sync-point-consistent copy), and commits the rebuilt lock
// world. Lock-protocol messages from before the commit epoch are dropped by every node.
struct RecoveryBeginMsg {
  uint32_t epoch = 0;
  NodeId dead = 0;
  uint16_t dead_incarnation = 0;  // the incarnation being retired
  uint16_t new_incarnation = 0;   // nonzero when the dead node is rejoining (restart)
  NodeId coordinator = 0;         // who runs this epoch; reports go here, not to a fixed node
  uint64_t clock = 0;

  friend bool operator==(const RecoveryBeginMsg&, const RecoveryBeginMsg&) = default;
};

struct LockStateReport {
  LockId lock = 0;
  // Flags: bit 0 resident, bit 1 held exclusive, bit 2 held shared, bit 3 waiting (the
  // application thread is blocked in Acquire on this lock).
  uint8_t flags = 0;
  uint32_t incarnation = 0;
  uint32_t last_seen_inc = 0;
  uint64_t last_seen_ts = 0;
  uint32_t binding_version = 0;
  // Nonzero only on a wrongly-buried node's rejoin report: the incarnation the burying
  // epoch's verdict assigned this lock when it rolled the data back to a survivor. The
  // reporter's in-memory copy (sync-point consistent at burial) supersedes exactly that
  // version, so if the resident still sits at rollback_inc — nothing was granted since —
  // the rejoin election hands ownership back and no released data is lost.
  uint32_t rollback_inc = 0;

  static constexpr uint8_t kResident = 1;
  static constexpr uint8_t kHeldExclusive = 2;
  static constexpr uint8_t kHeldShared = 4;
  static constexpr uint8_t kWaiting = 8;

  friend bool operator==(const LockStateReport&, const LockStateReport&) = default;
};

struct RecoveryReportMsg {
  uint32_t epoch = 0;
  NodeId node = 0;
  uint64_t clock = 0;
  std::vector<LockStateReport> locks;

  friend bool operator==(const RecoveryReportMsg&, const RecoveryReportMsg&) = default;
};

struct LockVerdict {
  LockId lock = 0;
  NodeId owner = 0;
  uint32_t incarnation = 0;         // the owner's post-recovery epoch counter
  uint16_t outstanding_shared = 0;  // live shared holds the owner must still collect

  friend bool operator==(const LockVerdict&, const LockVerdict&) = default;
};

struct RecoveryCommitMsg {
  uint32_t epoch = 0;
  NodeId dead = 0;
  uint16_t new_incarnation = 0;  // nonzero when the dead node rejoined
  NodeId coordinator = 0;        // who elected this commit
  uint64_t clock = 0;
  std::vector<LockVerdict> locks;
  // Membership snapshot as of this epoch (the coordinator's committed view, indexed by
  // node, with the epoch's own subject already folded in). A rejoiner — restarted or
  // resurrected — has missed every epoch committed while it was out; applying the snapshot
  // restores its node_dead_/node_inc_ view in one step instead of leaving it to route lock
  // traffic through nodes it still believes alive. Both vectors are nprocs long.
  std::vector<uint8_t> member_dead;
  std::vector<uint16_t> member_inc;

  friend bool operator==(const RecoveryCommitMsg&, const RecoveryCommitMsg&) = default;
};

// --- Encoding ---------------------------------------------------------------------------
// Every frame starts with a one-byte MsgType tag, then the struct fields in order.

std::vector<std::byte> Encode(MsgType type, const AcquireMsg& msg);  // AcquireReq or Forward
std::vector<std::byte> Encode(const GrantMsg& msg);
std::vector<std::byte> Encode(const ReadReleaseMsg& msg);
std::vector<std::byte> Encode(const BarrierEnterMsg& msg);
std::vector<std::byte> Encode(const BarrierReleaseMsg& msg);

// Zero-copy encoders for the data-carrying messages: the returned writer references large
// update payloads as borrowed segments instead of copying them, so it can be handed to
// Transport::SendV (scatter-gather) while the payload memory is pinned, or flattened with
// Take(). `pooled` optionally recycles a previously reclaimed frame buffer. The flat
// Encode() overloads above are Take() over these and remain byte-identical on the wire.
WireWriter EncodeW(const GrantMsg& msg, std::vector<std::byte> pooled = {});
WireWriter EncodeW(const BarrierEnterMsg& msg, std::vector<std::byte> pooled = {});
WireWriter EncodeW(const BarrierReleaseMsg& msg, std::vector<std::byte> pooled = {});
std::vector<std::byte> Encode(const HeartbeatMsg& msg);
std::vector<std::byte> Encode(const HeartbeatAckMsg& msg);
std::vector<std::byte> Encode(const JoinReqMsg& msg);
std::vector<std::byte> Encode(const RecoveryBeginMsg& msg);
std::vector<std::byte> Encode(const RecoveryReportMsg& msg);
std::vector<std::byte> Encode(const RecoveryCommitMsg& msg);

// Peeks the type tag (past the magic/version header); returns false on an empty, truncated,
// or mismatched-header frame.
bool PeekType(std::span<const std::byte> frame, MsgType* out);

// Reliability framing. EncodeRelData prepends the header to `app_frame`; DecodeRelFrame
// parses either frame kind, pointing `payload` into the data frame's application bytes (empty
// for acks). Returns false on malformed or unknown-tag frames. dst_inc is the destination
// node incarnation the sender believes (see RelHeader).
std::vector<std::byte> EncodeRelData(uint32_t seq, uint32_t cum_ack, uint16_t dst_inc,
                                     std::span<const std::byte> app_frame);
std::vector<std::byte> EncodeRelAck(uint32_t cum_ack, uint16_t dst_inc);
bool DecodeRelFrame(std::span<const std::byte> frame, RelHeader* out,
                    std::span<const std::byte>* payload);

// Decoders skip the header and type tag; return false on malformed frames.
bool Decode(std::span<const std::byte> frame, AcquireMsg* out);
bool Decode(std::span<const std::byte> frame, GrantMsg* out);
bool Decode(std::span<const std::byte> frame, ReadReleaseMsg* out);
bool Decode(std::span<const std::byte> frame, BarrierEnterMsg* out);
bool Decode(std::span<const std::byte> frame, BarrierReleaseMsg* out);
bool Decode(std::span<const std::byte> frame, HeartbeatMsg* out);
bool Decode(std::span<const std::byte> frame, HeartbeatAckMsg* out);
bool Decode(std::span<const std::byte> frame, JoinReqMsg* out);
bool Decode(std::span<const std::byte> frame, RecoveryBeginMsg* out);
bool Decode(std::span<const std::byte> frame, RecoveryReportMsg* out);
bool Decode(std::span<const std::byte> frame, RecoveryCommitMsg* out);

// Shared sub-encoders (exposed for tests).
void EncodeUpdateSet(WireWriter* w, const UpdateSet& set);
bool DecodeUpdateSet(WireReader* r, UpdateSet* out);
void EncodeBinding(WireWriter* w, const Binding& binding);
bool DecodeBinding(WireReader* r, Binding* out);

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_PROTOCOL_H_
