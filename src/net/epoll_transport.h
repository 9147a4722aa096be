// Event-loop TCP transport: one epoll loop thread per local node multiplexes all of that
// node's mesh connections over non-blocking sockets. This is the one TCP stack, used two
// ways:
//
//   in-process   — EpollTransport(n): all n nodes are local and wired to each other over
//                  localhost sockets (TransportKind::kTcp).
//   multi-process — EpollTransport(self, n, fds): one local rank adopting sockets already
//                  connected to its peers (net::BootstrapMesh), as RunDistributedNode does.
//
// Both constructors hand each local node's sockets to the same setup path. The data path:
//
//   receive — each connection owns a FrameAssembler over pooled 256 KiB buffers; complete
//             frames are delivered to the mailbox as zero-copy views (Packet::Borrowed)
//             pinned by the buffer's shared_ptr, batched per wakeup under one mailbox lock.
//   send    — callers write opportunistically on the caller thread (the fast path is one
//             non-blocking writev straight from region memory, preserving the zero-copy
//             SendV pipeline); on EAGAIN the remainder is copied into a per-connection
//             pending queue flushed by the loop on EPOLLOUT. The queue is capped: senders
//             block (backpressure) once kMaxPendingBytes are buffered for one link.
//
// Send/SendV may name only a local source, and Recv/RecvBatch only a local receiver.
#ifndef MIDWAY_SRC_NET_EPOLL_TRANSPORT_H_
#define MIDWAY_SRC_NET_EPOLL_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/recv_buffer.h"
#include "src/net/socket_util.h"
#include "src/net/transport.h"

namespace midway {

class EpollTransport final : public Transport {
 public:
  // Per-link pending-write cap; a sender blocks once this much is queued for one peer.
  static constexpr size_t kMaxPendingBytes = 4 * 1024 * 1024;

  // All num_nodes nodes local, meshed over localhost sockets.
  explicit EpollTransport(NodeId num_nodes);
  // Only `self` local: peer_fds[p] is a connected socket to rank p (peer_fds[self] is -1).
  // Takes ownership of the sockets.
  EpollTransport(NodeId self, NodeId num_nodes, const std::vector<int>& peer_fds);
  ~EpollTransport() override;

  NodeId NumNodes() const override { return num_nodes_; }
  void Send(NodeId src, NodeId dst, std::vector<std::byte> payload) override;
  void SendV(NodeId src, NodeId dst,
             std::span<const std::span<const std::byte>> segments) override;
  bool Recv(NodeId self, Packet* out) override;
  bool RecvBatch(NodeId self, std::vector<Packet>* out) override;
  void Shutdown() override;
  uint64_t BytesSent() const override { return bytes_sent_.load(std::memory_order_relaxed); }
  uint64_t PacketsSent() const override {
    return packets_sent_.load(std::memory_order_relaxed);
  }
  uint64_t RecvBytesCopied() const override;

 private:
  // One directed endpoint: the fd `owner` uses to talk to (and hear from) `peer`. The
  // receive side (assembler, closed flag) is touched only by owner's loop thread; the send
  // side is shared between caller threads and the loop, guarded by send_mu.
  struct Conn {
    int fd = -1;
    NodeId peer = 0;
    std::unique_ptr<net::FrameAssembler> assembler;
    bool closed = false;  // loop-thread only: deregistered after EOF/error

    std::mutex send_mu;
    std::condition_variable send_cv;
    std::deque<std::vector<std::byte>> pending;
    size_t pending_bytes = 0;
    size_t pending_off = 0;   // flushed prefix of pending.front()
    bool want_write = false;  // EPOLLOUT armed
    bool send_failed = false;
  };

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Packet> queue;
  };

  struct Node {
    NodeId self = 0;
    int epfd = -1;
    int wakefd = -1;
    net::RecvBufferPool pool;
    std::vector<std::unique_ptr<Conn>> conns;  // indexed by peer; [self] is null
    Mailbox mailbox;
    std::thread loop;
  };

  // The per-node setup both constructors share: makes fds[peer] non-blocking, gives each a
  // FrameAssembler, registers them and a wakeup eventfd with a new epoll set, and starts
  // the node's loop thread.
  void StartNode(NodeId self, const std::vector<int>& fds);
  // The node `id`, which must be local to this instance.
  Node& LocalNode(NodeId id);
  void EventLoop(Node& node);
  void DrainRecv(Node& node, Conn& conn);
  void FlushPending(Node& node, Conn& conn);
  // Writes slices (header first) to conn, queueing any unwritten remainder. Blocks while
  // the pending queue is over the cap. Counters are the caller's responsibility.
  void SendSlices(Node& node, Conn& conn, const net::IoSlice* slices, size_t count,
                  size_t total);
  void Deliver(Node& node, Packet packet);
  void DeliverBatch(Node& node, std::vector<Packet>* batch);
  // Arms/disarms EPOLLOUT for conn's fd. Called with conn.send_mu held.
  void SetWantWrite(Node& node, Conn& conn, bool want);
  void WakeLoop(Node& node);

  NodeId num_nodes_;
  std::vector<std::unique_ptr<Node>> nodes_;  // indexed by node id; null if not local
  std::atomic<bool> shutdown_{false};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> packets_sent_{0};
};

}  // namespace midway

#endif  // MIDWAY_SRC_NET_EPOLL_TRANSPORT_H_
