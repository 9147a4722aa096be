#include "src/core/distributed.h"

#include <thread>

#include "src/common/check.h"
#include "src/net/epoll_transport.h"
#include "src/net/socket_util.h"

namespace midway {

CounterSnapshot RunDistributedNode(const SystemConfig& config, const DistributedOptions& opts,
                                   const std::function<void(Runtime&)>& body) {
  MIDWAY_CHECK_LT(opts.rank, opts.num_procs);
  int listener = -1;
  if (opts.rank == 0) {
    listener = opts.adopted_listener_fd;
    if (listener < 0) {
      MIDWAY_CHECK_GT(opts.coordinator_port, 0)
          << " rank 0 needs a coordinator port or an adopted listener";
      uint16_t port = opts.coordinator_port;
      listener = net::Listen(opts.host, &port);
    }
  } else {
    MIDWAY_CHECK_GT(opts.coordinator_port, 0) << " workers need the coordinator port";
  }
  EpollTransport transport(opts.rank, opts.num_procs,
                           net::BootstrapMesh(opts.rank, opts.num_procs, opts.host, listener,
                                              opts.coordinator_port));

  Runtime runtime(config, opts.rank, &transport);
  std::thread comm([&runtime] { runtime.CommLoop(); });
  body(runtime);
  // Keep serving protocol messages until every rank is done, then tear down.
  runtime.FinishParallel();
  runtime.StopReliability();
  transport.Shutdown();
  comm.join();
  return CounterSnapshot::From(runtime.counters());
}

}  // namespace midway
