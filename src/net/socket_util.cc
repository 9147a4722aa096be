#include "src/net/socket_util.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/check.h"
#include "src/common/log.h"

namespace midway {
namespace net {

bool ReadExact(int fd, void* buf, size_t n) {
  auto* p = static_cast<std::byte*>(buf);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

bool WriteExact(int fd, const void* buf, size_t n) {
  const auto* p = static_cast<const std::byte*>(buf);
  size_t sent = 0;
  while (sent < n) {
    ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(r);
  }
  return true;
}

int Listen(const std::string& host, uint16_t* port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MIDWAY_CHECK_GE(fd, 0) << " socket(): " << std::strerror(errno);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  MIDWAY_CHECK_EQ(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr), 1)
      << " bad address " << host;
  addr.sin_port = htons(*port);
  MIDWAY_CHECK_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << " bind(" << host << ":" << *port << "): " << std::strerror(errno);
  MIDWAY_CHECK_EQ(::listen(fd, backlog), 0) << " listen(): " << std::strerror(errno);
  socklen_t len = sizeof(addr);
  MIDWAY_CHECK_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port = ntohs(addr.sin_port);
  return fd;
}

int ConnectWithRetry(const std::string& host, uint16_t port, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  // Exponential backoff between refused attempts: dense retries while the peer is about to
  // come up (the common multi-process bootstrap case), without hammering a peer that is
  // genuinely down for the whole window.
  std::chrono::milliseconds backoff{2};
  constexpr std::chrono::milliseconds kMaxBackoff{200};
  int attempts = 0;
  for (;;) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    MIDWAY_CHECK_GE(fd, 0) << " socket(): " << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    MIDWAY_CHECK_EQ(::inet_pton(AF_INET, host.c_str(), &addr.sin_addr), 1);
    addr.sin_port = htons(port);
    int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    if (rc != 0 && errno == EINPROGRESS) {
      // Handshake in flight: poll writability up to the remaining window instead of
      // sleeping a fixed interval — we wake the instant the SYN-ACK lands.
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd, POLLOUT, 0};
      if (::poll(&pfd, 1, std::max<int>(1, static_cast<int>(remaining.count()))) == 1) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err == 0) {
          rc = 0;
        } else {
          errno = err;
        }
      } else {
        errno = ETIMEDOUT;
      }
    }
    if (rc == 0) {
      // Callers expect a blocking socket; event-loop owners flip it back themselves.
      const int flags = ::fcntl(fd, F_GETFL, 0);
      MIDWAY_CHECK_GE(flags, 0) << " fcntl(F_GETFL): " << std::strerror(errno);
      MIDWAY_CHECK_EQ(::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK), 0)
          << " fcntl(F_SETFL): " << std::strerror(errno);
      return fd;
    }
    const int saved_errno = errno;
    ::close(fd);
    ++attempts;
    const auto now = std::chrono::steady_clock::now();
    MIDWAY_CHECK(now < deadline)
        << " connect(" << host << ":" << port << ") timed out after " << attempts
        << " attempts: " << std::strerror(saved_errno);
    // A refused connect fails instantly — there is no fd to poll until the peer binds its
    // listener, so a brief capped backoff is the only option on this branch.
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    std::this_thread::sleep_for(std::min(backoff, remaining));
    backoff = std::min(backoff * 2, kMaxBackoff);
  }
}

namespace {

// MIDWAY_SOCKET_BUFFER_BYTES, parsed once. 0 = keep the kernel default.
int ConfiguredSocketBufferBytes() {
  static const int bytes = [] {
    const char* env = std::getenv("MIDWAY_SOCKET_BUFFER_BYTES");
    if (env == nullptr || *env == '\0') return 0;
    return std::max(0, std::atoi(env));
  }();
  return bytes;
}

}  // namespace

void TuneSocket(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int want = ConfiguredSocketBufferBytes();
  if (want > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &want, sizeof(want));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &want, sizeof(want));
  }
  static std::once_flag log_once;
  std::call_once(log_once, [fd, want] {
    int nodelay = 0;
    int sndbuf = 0;
    int rcvbuf = 0;
    socklen_t len = sizeof(int);
    ::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len);
    len = sizeof(int);
    ::getsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, &len);
    len = sizeof(int);
    ::getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, &len);
    MIDWAY_LOG(Info) << "socket tuning: TCP_NODELAY=" << nodelay << " SO_SNDBUF=" << sndbuf
                     << " SO_RCVBUF=" << rcvbuf
                     << (want > 0 ? " (MIDWAY_SOCKET_BUFFER_BYTES=" + std::to_string(want) + ")"
                                  : " (kernel default buffers)");
  });
}

namespace {

bool SendHello(int fd, uint16_t rank, uint16_t port) {
  uint8_t buf[4] = {static_cast<uint8_t>(rank & 0xFF), static_cast<uint8_t>(rank >> 8),
                    static_cast<uint8_t>(port & 0xFF), static_cast<uint8_t>(port >> 8)};
  return WriteExact(fd, buf, sizeof(buf));
}

bool RecvHello(int fd, uint16_t* rank, uint16_t* port) {
  uint8_t buf[4];
  if (!ReadExact(fd, buf, sizeof(buf))) return false;
  *rank = static_cast<uint16_t>(buf[0] | (buf[1] << 8));
  *port = static_cast<uint16_t>(buf[2] | (buf[3] << 8));
  return true;
}

}  // namespace

std::vector<int> BootstrapMesh(uint16_t self, uint16_t num_nodes, const std::string& host,
                               int listener_fd, uint16_t coordinator_port) {
  MIDWAY_CHECK_LT(self, num_nodes);
  std::vector<int> fds(num_nodes, -1);
  std::vector<uint8_t> table(static_cast<size_t>(num_nodes) * 2, 0);
  // Accepts one hello on `listener` from a rank above `lowest_excluded`; returns its rank.
  auto accept_hello = [&](int listener, uint16_t lowest_excluded, uint16_t* port) {
    int fd = ::accept(listener, nullptr, nullptr);
    MIDWAY_CHECK_GE(fd, 0) << " accept(): " << std::strerror(errno);
    uint16_t rank = 0;
    MIDWAY_CHECK(RecvHello(fd, &rank, port)) << " bootstrap hello failed";
    MIDWAY_CHECK_GT(rank, lowest_excluded);
    MIDWAY_CHECK_LT(rank, num_nodes);
    MIDWAY_CHECK_EQ(fds[rank], -1) << " duplicate rank " << rank;
    fds[rank] = fd;
    return rank;
  };

  if (self == 0) {
    MIDWAY_CHECK_GE(listener_fd, 0) << " rank 0 needs a listening socket";
    for (uint16_t k = 1; k < num_nodes; ++k) {
      uint16_t port = 0;
      const uint16_t rank = accept_hello(listener_fd, 0, &port);
      table[rank * 2] = static_cast<uint8_t>(port & 0xFF);
      table[rank * 2 + 1] = static_cast<uint8_t>(port >> 8);
    }
    ::close(listener_fd);
    for (uint16_t r = 1; r < num_nodes; ++r) {
      MIDWAY_CHECK(WriteExact(fds[r], table.data(), table.size()))
          << " table broadcast to rank " << r << " failed";
    }
    return fds;
  }

  uint16_t my_port = 0;
  int peer_listener = Listen(host, &my_port);
  fds[0] = ConnectWithRetry(host, coordinator_port);
  MIDWAY_CHECK(SendHello(fds[0], self, my_port)) << " bootstrap hello failed";
  MIDWAY_CHECK(ReadExact(fds[0], table.data(), table.size())) << " bootstrap table read failed";
  // Lower-numbered peers are already listening: the coordinator sends the table only once
  // every rank has registered its port.
  for (uint16_t j = 1; j < self; ++j) {
    const auto port = static_cast<uint16_t>(table[j * 2] | (table[j * 2 + 1] << 8));
    fds[j] = ConnectWithRetry(host, port);
    MIDWAY_CHECK(SendHello(fds[j], self, 0)) << " bootstrap hello failed";
  }
  for (uint16_t k = self + 1; k < num_nodes; ++k) {
    uint16_t unused = 0;
    accept_hello(peer_listener, self, &unused);
  }
  ::close(peer_listener);
  return fds;
}

}  // namespace net
}  // namespace midway
