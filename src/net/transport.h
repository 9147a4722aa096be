// Message-passing transport abstraction.
//
// Midway runs on a network of workstations with an explicit message-passing network; this
// interface models that. Nodes are numbered 0..N-1. Each node has a mailbox; Send is
// non-blocking up to a bounded amount of buffering (socket transports apply backpressure
// once a link's write queue is full), Recv blocks until a packet arrives or the transport
// shuts down.
//
// Implementations:
//   * InProcTransport — mutex/condvar mailboxes (fast, deterministic; the default).
//   * EpollTransport  — the one TCP stack: length-prefixed frames multiplexed by one epoll
//                       event-loop thread per local node, with every node in one process or
//                       one rank per process (RunDistributedNode). Received frames are views
//                       into pooled buffers (see Packet below), the receive-side mirror of
//                       the zero-copy SendV path.
//   * FaultyTransport — seeded fault injection over InProcTransport, for testing under the
//                       reliable delivery channel.
#ifndef MIDWAY_SRC_NET_TRANSPORT_H_
#define MIDWAY_SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace midway {

using NodeId = uint16_t;

// A received message. Two storage forms, distinguished by `keepalive`:
//   * owned    — `payload` holds the bytes (in-process transports, self-sends).
//   * borrowed — `view` points into a pooled receive buffer pinned by `keepalive`; the
//                bytes live exactly as long as some Packet (or other frame from the same
//                buffer) still references it. Copying the Packet copies only the
//                shared_ptr, never the payload.
// Consumers read through bytes(), which works for both forms.
struct Packet {
  NodeId src = 0;
  std::vector<std::byte> payload;
  std::span<const std::byte> view;
  std::shared_ptr<std::vector<std::byte>> keepalive;

  std::span<const std::byte> bytes() const {
    return keepalive ? view : std::span<const std::byte>(payload);
  }

  static Packet Owned(NodeId src, std::vector<std::byte> bytes) {
    Packet p;
    p.src = src;
    p.payload = std::move(bytes);
    return p;
  }
  static Packet Borrowed(NodeId src, std::span<const std::byte> view,
                         std::shared_ptr<std::vector<std::byte>> keepalive) {
    Packet p;
    p.src = src;
    p.view = view;
    p.keepalive = std::move(keepalive);
    return p;
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual NodeId NumNodes() const = 0;

  // Delivers `payload` to `dst`'s mailbox. Self-sends are allowed. Thread safe.
  virtual void Send(NodeId src, NodeId dst, std::vector<std::byte> payload) = 0;

  // Scatter-gather send: delivers the concatenation of `segments` as one packet. The
  // referenced memory is only borrowed for the duration of the call. Socket transports
  // override this with writev so payload spans go from region memory to the kernel without
  // an intermediate copy; the default gathers into one vector and forwards to Send.
  virtual void SendV(NodeId src, NodeId dst,
                     std::span<const std::span<const std::byte>> segments) {
    size_t total = 0;
    for (const auto& seg : segments) total += seg.size();
    std::vector<std::byte> flat;
    flat.reserve(total);
    for (const auto& seg : segments) flat.insert(flat.end(), seg.begin(), seg.end());
    Send(src, dst, std::move(flat));
  }

  // Blocks until a packet for `self` arrives. Returns false when the transport has shut down
  // and the mailbox is drained. Thread safe per receiving node.
  virtual bool Recv(NodeId self, Packet* out) = 0;

  // Batched receive: blocks like Recv, then appends *every* queued packet to `out` in
  // arrival order. Event-loop transports override this to hand the communication thread a
  // whole coalesced batch under one mailbox lock; the default forwards to Recv and yields
  // one packet. Returns false only on shutdown with an empty mailbox.
  virtual bool RecvBatch(NodeId self, std::vector<Packet>* out) {
    Packet p;
    if (!Recv(self, &p)) return false;
    out->push_back(std::move(p));
    return true;
  }

  // Wakes all blocked receivers; subsequent Recv calls drain remaining packets then return
  // false. Idempotent.
  virtual void Shutdown() = 0;

  // Total bytes handed to Send since construction (protocol overhead accounting).
  virtual uint64_t BytesSent() const = 0;
  // Total packet count handed to Send since construction.
  virtual uint64_t PacketsSent() const = 0;

  // Receive-side bytes copied while reassembling frame fragments that straddled pooled
  // buffer boundaries (header reassembly + partial-payload spill). Zero for transports that
  // deliver owned packets; the complement of the send side's payload_bytes_copied counter.
  virtual uint64_t RecvBytesCopied() const { return 0; }

  // Crash simulation (fault-injection transports override; no-ops elsewhere). CrashNode cuts
  // `node` off: packets to and from it are discarded, its queued mail is dropped, and its
  // blocked Recv returns false so the communication thread exits. ReviveNode restores
  // delivery for a restarted incarnation with an empty mailbox.
  virtual void CrashNode(NodeId node) { (void)node; }
  virtual void ReviveNode(NodeId node) { (void)node; }
};

}  // namespace midway

#endif  // MIDWAY_SRC_NET_TRANSPORT_H_
