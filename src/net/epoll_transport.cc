#include "src/net/epoll_transport.h"

#include <fcntl.h>
#include <limits.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/check.h"
#include "src/common/log.h"

namespace midway {
namespace {

// epoll_event.data.u32 tag for the per-node eventfd (peer ids are < kWakeTag).
constexpr uint32_t kWakeTag = 0xFFFFFFFF;

// An in-process 64-node mesh holds ~N^2 sockets in one process; the default soft NOFILE limit
// (often 1024) is below that. Raise it toward the hard limit, best-effort, to cover the
// sockets, epoll sets and eventfds of `local_nodes` nodes each linked to every other node.
void RaiseFdLimitFor(NodeId local_nodes, NodeId num_nodes) {
  const rlim_t needed = static_cast<rlim_t>(local_nodes) * (num_nodes + 1) + 256;
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0 || lim.rlim_cur >= needed) return;
  rlimit want = lim;
  want.rlim_cur = std::min(std::max<rlim_t>(needed, lim.rlim_cur), lim.rlim_max);
  if (::setrlimit(RLIMIT_NOFILE, &want) != 0) {
    MIDWAY_LOG(Warn) << "epoll transport: cannot raise RLIMIT_NOFILE to " << needed << " for "
                     << local_nodes << " local nodes of " << num_nodes << ": "
                     << std::strerror(errno);
  }
}

// A reset or a broken pipe means the peer closed its end, as a multi-process rank does when
// it finishes first. Like a clean EOF, that ends the link without being an error.
bool PeerClosed(int err) { return err == ECONNRESET || err == EPIPE; }

void SetNonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  MIDWAY_CHECK_GE(flags, 0) << " fcntl(F_GETFL): " << std::strerror(errno);
  MIDWAY_CHECK_EQ(::fcntl(fd, F_SETFL, flags | O_NONBLOCK), 0)
      << " fcntl(F_SETFL): " << std::strerror(errno);
}

// Non-blocking scatter-gather write: sends as much as the kernel accepts right now.
// Returns bytes written; sets *fatal on unrecoverable errors (EAGAIN is not fatal).
size_t TryWritev(int fd, const net::IoSlice* slices, size_t count, bool* fatal) {
  *fatal = false;
  std::vector<iovec> iov(count);
  for (size_t i = 0; i < count; ++i) {
    iov[i].iov_base = const_cast<void*>(slices[i].data);
    iov[i].iov_len = slices[i].size;
  }
  size_t idx = 0;
  size_t written = 0;
  while (idx < count) {
    if (iov[idx].iov_len == 0) {
      ++idx;
      continue;
    }
    msghdr msg{};
    msg.msg_iov = iov.data() + idx;
    msg.msg_iovlen = std::min(count - idx, static_cast<size_t>(IOV_MAX));
    ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) *fatal = true;
      break;
    }
    written += static_cast<size_t>(r);
    auto n = static_cast<size_t>(r);
    while (idx < count && n >= iov[idx].iov_len) {
      n -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < count && n > 0) {
      iov[idx].iov_base = static_cast<std::byte*>(iov[idx].iov_base) + n;
      iov[idx].iov_len -= n;
    }
  }
  return written;
}

}  // namespace

EpollTransport::EpollTransport(NodeId num_nodes) : num_nodes_(num_nodes), nodes_(num_nodes) {
  MIDWAY_CHECK_GT(num_nodes, 0);
  RaiseFdLimitFor(num_nodes, num_nodes);
  // fds[i][j] is node i's endpoint toward j. For each pair (i < j), j connects to i's
  // listener. Setup is sequential (single constructor thread), so there is no
  // accept/connect ordering hazard: we connect then immediately accept.
  std::vector<std::vector<int>> fds(num_nodes, std::vector<int>(num_nodes, -1));
  for (NodeId i = 0; i + 1 < num_nodes; ++i) {
    uint16_t port = 0;
    int listener = net::Listen("127.0.0.1", &port);
    for (NodeId j = i + 1; j < num_nodes; ++j) {
      fds[j][i] = net::ConnectWithRetry("127.0.0.1", port);
      fds[i][j] = ::accept(listener, nullptr, nullptr);
      MIDWAY_CHECK_GE(fds[i][j], 0) << " accept(): " << std::strerror(errno);
    }
    ::close(listener);
  }
  for (NodeId i = 0; i < num_nodes; ++i) StartNode(i, fds[i]);
}

EpollTransport::EpollTransport(NodeId self, NodeId num_nodes, const std::vector<int>& peer_fds)
    : num_nodes_(num_nodes), nodes_(num_nodes) {
  MIDWAY_CHECK_LT(self, num_nodes);
  MIDWAY_CHECK_EQ(peer_fds.size(), num_nodes);
  for (NodeId p = 0; p < num_nodes; ++p) {
    if (p == self) {
      MIDWAY_CHECK_EQ(peer_fds[p], -1) << " a rank has no socket to itself";
    } else {
      MIDWAY_CHECK_GE(peer_fds[p], 0) << " missing mesh link to rank " << p;
    }
  }
  RaiseFdLimitFor(1, num_nodes);
  StartNode(self, peer_fds);
}

void EpollTransport::StartNode(NodeId self, const std::vector<int>& fds) {
  auto node = std::make_unique<Node>();
  node->self = self;
  node->conns.resize(num_nodes_);
  node->epfd = ::epoll_create1(0);
  MIDWAY_CHECK_GE(node->epfd, 0) << " epoll_create1: " << std::strerror(errno);
  node->wakefd = ::eventfd(0, EFD_NONBLOCK);
  MIDWAY_CHECK_GE(node->wakefd, 0) << " eventfd: " << std::strerror(errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kWakeTag;
  MIDWAY_CHECK_EQ(::epoll_ctl(node->epfd, EPOLL_CTL_ADD, node->wakefd, &ev), 0);
  for (NodeId peer = 0; peer < num_nodes_; ++peer) {
    if (fds[peer] < 0) continue;
    net::TuneSocket(fds[peer]);
    SetNonblocking(fds[peer]);
    auto conn = std::make_unique<Conn>();
    conn->fd = fds[peer];
    conn->peer = peer;
    conn->assembler = std::make_unique<net::FrameAssembler>(&node->pool);
    epoll_event cev{};
    cev.events = EPOLLIN;
    cev.data.u32 = peer;
    MIDWAY_CHECK_EQ(::epoll_ctl(node->epfd, EPOLL_CTL_ADD, conn->fd, &cev), 0)
        << " epoll_ctl(ADD): " << std::strerror(errno);
    node->conns[peer] = std::move(conn);
  }
  Node& started = *node;
  nodes_[self] = std::move(node);
  started.loop = std::thread([this, &started] { EventLoop(started); });
}

EpollTransport::Node& EpollTransport::LocalNode(NodeId id) {
  MIDWAY_CHECK_LT(id, num_nodes_);
  MIDWAY_CHECK(nodes_[id] != nullptr) << " node " << id << " is not local to this transport";
  return *nodes_[id];
}

EpollTransport::~EpollTransport() {
  Shutdown();
  for (auto& node : nodes_) {
    if (node && node->loop.joinable()) node->loop.join();
  }
  for (auto& node : nodes_) {
    if (!node) continue;
    for (auto& conn : node->conns) {
      if (conn && conn->fd >= 0) {
        ::close(conn->fd);
        conn->fd = -1;
      }
    }
    if (node->wakefd >= 0) ::close(node->wakefd);
    if (node->epfd >= 0) ::close(node->epfd);
  }
}

void EpollTransport::WakeLoop(Node& node) {
  uint64_t one = 1;
  (void)!::write(node.wakefd, &one, sizeof(one));
}

void EpollTransport::SetWantWrite(Node& node, Conn& conn, bool want) {
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0);
  ev.data.u32 = conn.peer;
  // ENOENT: the loop already deregistered the fd (peer EOF). Harmless — the queued bytes
  // are dropped by CloseConn's failure path.
  if (::epoll_ctl(node.epfd, EPOLL_CTL_MOD, conn.fd, &ev) == 0 || errno == ENOENT) {
    conn.want_write = want;
  }
}

void EpollTransport::EventLoop(Node& node) {
  constexpr int kMaxEvents = 128;
  std::vector<epoll_event> events(kMaxEvents);
  for (;;) {
    int n = ::epoll_wait(node.epfd, events.data(), kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      MIDWAY_LOG(Warn) << "epoll_wait failed on node " << node.self << ": "
                       << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u32 == kWakeTag) {
        uint64_t v = 0;
        (void)!::read(node.wakefd, &v, sizeof(v));
        continue;
      }
      Conn& conn = *node.conns[events[i].data.u32];
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) DrainRecv(node, conn);
      if (events[i].events & EPOLLOUT) FlushPending(node, conn);
    }
    if (shutdown_.load(std::memory_order_acquire)) return;
  }
}

void EpollTransport::DrainRecv(Node& node, Conn& conn) {
  if (conn.closed) return;
  auto close_conn = [&](const char* why) {
    ::epoll_ctl(node.epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
    conn.closed = true;
    if (why != nullptr && !shutdown_.load(std::memory_order_relaxed)) {
      MIDWAY_LOG(Warn) << "epoll transport: node " << node.self << " dropping link to node "
                       << conn.peer << ": " << why;
    }
    // Release anyone blocked on this link's write backpressure; the bytes have nowhere to
    // go anymore.
    std::lock_guard<std::mutex> lock(conn.send_mu);
    conn.send_failed = true;
    conn.pending.clear();
    conn.pending_bytes = 0;
    conn.pending_off = 0;
    conn.send_cv.notify_all();
  };

  std::vector<Packet> batch;
  for (;;) {
    auto tail = conn.assembler->WritableTail(2048);
    ssize_t r = ::recv(conn.fd, tail.data(), tail.size(), 0);
    if (r > 0) {
      conn.assembler->CommitRead(static_cast<size_t>(r));
      net::RecvFrame frame;
      while (conn.assembler->Next(&frame)) {
        batch.push_back(
            Packet::Borrowed(frame.src, frame.payload, std::move(frame.keepalive)));
      }
      if (conn.assembler->error()) {
        close_conn(conn.assembler->error_message().c_str());
        break;
      }
      if (static_cast<size_t>(r) < tail.size()) break;  // kernel buffer drained
      continue;
    }
    if (r == 0) {
      close_conn(conn.assembler->HasPartialFrame()
                     ? "peer closed mid-frame (truncated header or payload)"
                     : nullptr);
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(PeerClosed(errno) ? nullptr : std::strerror(errno));
    break;
  }
  if (!batch.empty()) DeliverBatch(node, &batch);
}

void EpollTransport::FlushPending(Node& node, Conn& conn) {
  std::lock_guard<std::mutex> lock(conn.send_mu);
  while (!conn.pending.empty()) {
    auto& front = conn.pending.front();
    ssize_t r = ::send(conn.fd, front.data() + conn.pending_off,
                       front.size() - conn.pending_off, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (!shutdown_.load(std::memory_order_relaxed) && !PeerClosed(errno)) {
        MIDWAY_LOG(Warn) << "epoll transport: flush " << node.self << "->" << conn.peer
                         << " failed: " << std::strerror(errno);
      }
      conn.send_failed = true;
      conn.pending.clear();
      conn.pending_bytes = 0;
      conn.pending_off = 0;
      break;
    }
    conn.pending_off += static_cast<size_t>(r);
    if (conn.pending_off == front.size()) {
      conn.pending_bytes -= front.size();
      conn.pending_off = 0;
      conn.pending.pop_front();
    }
  }
  if (conn.pending.empty() && conn.want_write) SetWantWrite(node, conn, false);
  conn.send_cv.notify_all();
}

void EpollTransport::SendSlices(Node& node, Conn& conn, const net::IoSlice* slices,
                                size_t count, size_t total) {
  std::unique_lock<std::mutex> lock(conn.send_mu);
  if (conn.send_failed) return;
  // Backpressure: a link's pending queue is capped; block the sender until the loop has
  // flushed below the cap (or the transport shuts down / the link dies).
  conn.send_cv.wait(lock, [&] {
    return conn.pending_bytes < kMaxPendingBytes || conn.send_failed ||
           shutdown_.load(std::memory_order_relaxed);
  });
  if (conn.send_failed || shutdown_.load(std::memory_order_relaxed)) return;
  size_t written = 0;
  if (conn.pending.empty()) {
    // Fast path: one non-blocking writev straight from the caller's slices — for SendV
    // these point into region memory, so the zero-copy pipeline reaches the kernel.
    bool fatal = false;
    written = TryWritev(conn.fd, slices, count, &fatal);
    if (fatal) {
      if (!shutdown_.load(std::memory_order_relaxed) && !PeerClosed(errno)) {
        MIDWAY_LOG(Warn) << "epoll transport: send " << node.self << "->" << conn.peer
                         << " failed: " << std::strerror(errno);
      }
      conn.send_failed = true;
      conn.send_cv.notify_all();
      return;
    }
    if (written == total) return;
  }
  // Slow path: the kernel buffer is full (or earlier bytes are still queued — frames on one
  // link must stay ordered). Copy the unwritten remainder into the pending queue; the event
  // loop flushes it on EPOLLOUT.
  std::vector<std::byte> rest;
  rest.reserve(total - written);
  size_t skip = written;
  for (size_t i = 0; i < count; ++i) {
    const auto* p = static_cast<const std::byte*>(slices[i].data);
    const size_t n = slices[i].size;
    if (skip >= n) {
      skip -= n;
      continue;
    }
    rest.insert(rest.end(), p + skip, p + n);
    skip = 0;
  }
  conn.pending_bytes += rest.size();
  conn.pending.push_back(std::move(rest));
  if (!conn.want_write) SetWantWrite(node, conn, true);
}

void EpollTransport::Send(NodeId src, NodeId dst, std::vector<std::byte> payload) {
  Node& node = LocalNode(src);
  MIDWAY_CHECK_LT(dst, num_nodes_);
  bytes_sent_.fetch_add(payload.size(), std::memory_order_relaxed);
  packets_sent_.fetch_add(1, std::memory_order_relaxed);
  if (src == dst) {
    Deliver(node, Packet::Owned(src, std::move(payload)));
    return;
  }
  uint8_t header[net::kFrameHeaderBytes];
  net::FillFrameHeader(header, static_cast<uint32_t>(payload.size()), src);
  net::IoSlice slices[2] = {{header, sizeof(header)}, {payload.data(), payload.size()}};
  SendSlices(node, *node.conns[dst], slices, 2, sizeof(header) + payload.size());
}

void EpollTransport::SendV(NodeId src, NodeId dst,
                           std::span<const std::span<const std::byte>> segments) {
  Node& node = LocalNode(src);
  MIDWAY_CHECK_LT(dst, num_nodes_);
  if (src == dst) {
    // A self-delivered packet outlives the borrowed segments; gather into an owned vector.
    Transport::SendV(src, dst, segments);
    return;
  }
  size_t total = 0;
  for (const auto& seg : segments) total += seg.size();
  bytes_sent_.fetch_add(total, std::memory_order_relaxed);
  packets_sent_.fetch_add(1, std::memory_order_relaxed);
  uint8_t header[net::kFrameHeaderBytes];
  net::FillFrameHeader(header, static_cast<uint32_t>(total), src);
  std::vector<net::IoSlice> slices;
  slices.reserve(segments.size() + 1);
  slices.push_back(net::IoSlice{header, sizeof(header)});
  for (const auto& seg : segments) {
    slices.push_back(net::IoSlice{seg.data(), seg.size()});
  }
  SendSlices(node, *node.conns[dst], slices.data(), slices.size(), sizeof(header) + total);
}

void EpollTransport::Deliver(Node& node, Packet packet) {
  Mailbox& box = node.mailbox;
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(std::move(packet));
  }
  box.cv.notify_one();
}

void EpollTransport::DeliverBatch(Node& node, std::vector<Packet>* batch) {
  Mailbox& box = node.mailbox;
  {
    std::lock_guard<std::mutex> lock(box.mu);
    for (auto& p : *batch) box.queue.push_back(std::move(p));
  }
  box.cv.notify_one();
}

bool EpollTransport::Recv(NodeId self, Packet* out) {
  Mailbox& box = LocalNode(self).mailbox;
  std::unique_lock<std::mutex> lock(box.mu);
  box.cv.wait(lock, [&] { return !box.queue.empty() || shutdown_.load(); });
  if (box.queue.empty()) return false;
  *out = std::move(box.queue.front());
  box.queue.pop_front();
  return true;
}

bool EpollTransport::RecvBatch(NodeId self, std::vector<Packet>* out) {
  Mailbox& box = LocalNode(self).mailbox;
  std::unique_lock<std::mutex> lock(box.mu);
  box.cv.wait(lock, [&] { return !box.queue.empty() || shutdown_.load(); });
  if (box.queue.empty()) return false;
  out->reserve(out->size() + box.queue.size());
  while (!box.queue.empty()) {
    out->push_back(std::move(box.queue.front()));
    box.queue.pop_front();
  }
  return true;
}

void EpollTransport::Shutdown() {
  bool expected = false;
  const bool first = shutdown_.compare_exchange_strong(expected, true);
  for (auto& node : nodes_) {
    if (!node) continue;
    if (first) {
      WakeLoop(*node);
      for (auto& conn : node->conns) {
        if (!conn) continue;
        std::lock_guard<std::mutex> lock(conn->send_mu);
        conn->send_cv.notify_all();
      }
    }
    std::lock_guard<std::mutex> lock(node->mailbox.mu);
    node->mailbox.cv.notify_all();
  }
}

uint64_t EpollTransport::RecvBytesCopied() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (!node) continue;
    for (const auto& conn : node->conns) {
      if (conn) total += conn->assembler->BytesCopied();
    }
  }
  return total;
}

}  // namespace midway
