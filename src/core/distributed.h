// Multi-process operation: run one DSM processor per OS process over a TCP mesh — the
// paper's actual deployment shape (a network of workstations).
//
// Every process calls RunDistributedNode with its rank; rank 0 coordinates the mesh
// bootstrap (net::BootstrapMesh), after which each process runs its rank over an
// EpollTransport that adopts the connected sockets — the same event-loop TCP stack as the
// in-process TransportKind::kTcp, with one local node instead of all of them. Barriers run
// over the reduction tree rooted at the lowest live rank. The
// SPMD contract is unchanged: all ranks execute the same setup calls in
// the same order before BeginParallel. RunDistributedNode returns only after *every* rank
// has finished `body` (a final collective keeps each node's communication thread serving
// lock grants until no node can need one).
//
//   // in each of N processes:
//   midway::DistributedOptions opts;
//   opts.rank = <0..N-1>; opts.num_procs = N; opts.coordinator_port = 7700;
//   midway::CounterSnapshot stats = midway::RunDistributedNode(config, opts, body);
#ifndef MIDWAY_SRC_CORE_DISTRIBUTED_H_
#define MIDWAY_SRC_CORE_DISTRIBUTED_H_

#include <functional>
#include <string>

#include "src/core/runtime.h"

namespace midway {

struct DistributedOptions {
  NodeId rank = 0;
  NodeId num_procs = 1;
  std::string host = "127.0.0.1";
  uint16_t coordinator_port = 0;  // required for rank > 0
  // Rank 0 alternative: adopt an already-listening socket (a launcher binds an ephemeral
  // port, records it, then forks workers that connect to it).
  int adopted_listener_fd = -1;
};

// Blocks until all ranks complete. Returns this node's counters.
CounterSnapshot RunDistributedNode(const SystemConfig& config, const DistributedOptions& opts,
                                   const std::function<void(Runtime&)>& body);

}  // namespace midway

#endif  // MIDWAY_SRC_CORE_DISTRIBUTED_H_
