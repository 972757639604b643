// Host topology shared by the echo and KV runners: the HostOptions a server and its
// load-generating clients get for one architecture kind, and the Demikernel libOS
// that kind runs on.

#ifndef BENCH_TOPOLOGY_H_
#define BENCH_TOPOLOGY_H_

#include <string>

#include "src/core/harness.h"

namespace demi::bench {

struct Topology {
  HostOptions server;
  HostOptions client;  // load generators: their CPU time is not measured
};

// kind: "catnip" | "catnap" | "catmint" | "posix" | "mtcp". Catmint hosts carry an
// RDMA NIC instead of the Ethernet NIC and no kernel; mTCP replaces the server's
// kernel stack.
inline Topology TopologyFor(const std::string& kind) {
  Topology t;
  t.client.charges_clock = false;
  if (kind == "catmint") {
    for (HostOptions* o : {&t.server, &t.client}) {
      o->with_rdma = true;
      o->with_nic = false;
      o->with_kernel = false;
    }
  }
  if (kind == "mtcp") {
    t.server.with_kernel = false;
  }
  return t;
}

// The libOS of a Demikernel kind ("catnip" | "catnap" | "catmint") on `host`.
inline LibOS* DemiLibOS(TestHarness& env, TestHarness::Host& host, const std::string& kind) {
  if (kind == "catnip") {
    return &env.Catnip(host);
  }
  if (kind == "catnap") {
    return &env.Catnap(host);
  }
  return &env.Catmint(host);
}

}  // namespace demi::bench

#endif  // BENCH_TOPOLOGY_H_
