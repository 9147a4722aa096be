// Low-level socket helpers for the TCP transport and its multi-process bootstrap.
#ifndef MIDWAY_SRC_NET_SOCKET_UTIL_H_
#define MIDWAY_SRC_NET_SOCKET_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace midway {
namespace net {

// Reads exactly n bytes; returns false on EOF or unrecoverable error.
bool ReadExact(int fd, void* buf, size_t n);
// Writes exactly n bytes (MSG_NOSIGNAL); returns false on unrecoverable error.
bool WriteExact(int fd, const void* buf, size_t n);

// One piece of a scatter-gather write.
struct IoSlice {
  const void* data = nullptr;
  size_t size = 0;
};

// Creates a listening IPv4 socket. `port` == 0 picks an ephemeral port; the actual port is
// written back through `port`. Aborts (MIDWAY_CHECK) on socket errors.
int Listen(const std::string& host, uint16_t* port, int backlog = 64);

// Connects to host:port, retrying for up to `timeout_ms` while the peer is not yet
// listening (multi-process bootstrap). Aborts on timeout.
int ConnectWithRetry(const std::string& host, uint16_t port, int timeout_ms = 10'000);

// Per-connection tuning for the mesh data path: TCP_NODELAY (small sync messages must not
// wait for Nagle) plus optional SO_SNDBUF/SO_RCVBUF sizing from the
// MIDWAY_SOCKET_BUFFER_BYTES environment variable (0/unset keeps the kernel default). The
// effective values are logged once per process at Info level.
void TuneSocket(int fd);

// Connects rank `self` of a `num_nodes`-process mesh to every other rank and returns the
// sockets, indexed by peer rank (fds[self] is -1), blocking and untuned.
//
// Rank 0 is the coordinator: it passes its listening socket as `listener_fd` (and closes
// it), accepts every other rank, gathers each one's hello {u16 rank, u16 peer port} and
// broadcasts the port table (u16 per rank). Every other rank passes the coordinator's
// port: it opens its own ephemeral peer listener, says hello, reads the table, then
// connects to each lower-numbered peer (sending a hello) and accepts each higher-numbered
// one. The coordinator connections double as the rank-0 links. All values little-endian.
// Aborts (MIDWAY_CHECK) on any bootstrap failure.
std::vector<int> BootstrapMesh(uint16_t self, uint16_t num_nodes, const std::string& host,
                               int listener_fd, uint16_t coordinator_port);

}  // namespace net
}  // namespace midway

#endif  // MIDWAY_SRC_NET_SOCKET_UTIL_H_
