// Shared echo-experiment runners used by F1, C5, and E1: one closed-loop client, a
// server in the given architecture, N request-response round trips; returns latency
// plus the server host's counters for cost breakdowns.

#ifndef BENCH_ECHO_RUNNERS_H_
#define BENCH_ECHO_RUNNERS_H_

#include <string>

#include "bench/topology.h"
#include "src/apps/actors.h"

namespace demi::bench {

struct EchoRun {
  Histogram latency;
  std::uint64_t completed = 0;
  Counters server_counters;
  std::uint64_t server_cpu_ns = 0;
  TimeNs elapsed = 0;
  // End-of-run observability snapshot (per-op latency quantiles, sim internals,
  // recovery trace) of this run's private simulation.
  MetricsSnapshot metrics;
  bool ok = false;
};

constexpr std::uint16_t kEchoPort = 7;

// kind: "catnip" | "catnap" | "catmint" | "posix" | "mtcp"
inline EchoRun RunEcho(const std::string& kind, std::size_t msg_bytes,
                       std::uint64_t requests, CostModel cost = CostModel{}) {
  TestHarness env(cost);
  EchoRun out;

  const Topology topo = TopologyFor(kind);
  auto& sh = env.AddHost("server", "10.0.0.1", topo.server);
  auto& ch = env.AddHost("client", "10.0.0.2", topo.client);

  // Keep every actor alive until the run finishes.
  std::unique_ptr<DemiServer> demi_server;
  std::unique_ptr<DemiClient> demi_client;
  std::unique_ptr<PosixServer> posix_server;
  std::unique_ptr<PosixEchoClient> posix_client;
  std::unique_ptr<MtcpStack> mtcp;
  std::unique_ptr<MtcpEchoServer> mtcp_server;

  auto finished = [&]() -> bool {
    if (demi_client) {
      return demi_client->done();
    }
    return posix_client && posix_client->done();
  };

  if (kind == "catnip" || kind == "catnap" || kind == "catmint") {
    LibOS* sl = DemiLibOS(env, sh, kind);
    LibOS* cl = DemiLibOS(env, ch, kind);
    demi_server = std::make_unique<DemiServer>(sl, kEchoPort, EchoReply);
    demi_client = std::make_unique<DemiClient>(cl, Endpoint{sh.ip, kEchoPort}, requests,
                                               EchoRequests(cl, msg_bytes),
                                               EchoReplyOk(msg_bytes));
  } else if (kind == "posix") {
    posix_server =
        std::make_unique<PosixServer>(sh.kernel.get(), kEchoPort, PosixEcho(msg_bytes));
    posix_client = std::make_unique<PosixEchoClient>(ch.kernel.get(),
                                                     Endpoint{sh.ip, kEchoPort}, msg_bytes,
                                                     requests);
  } else if (kind == "mtcp") {
    MtcpConfig mcfg;
    mcfg.ip = sh.ip;
    mtcp = std::make_unique<MtcpStack>(sh.cpu.get(), sh.nic.get(), mcfg);
    mtcp_server = std::make_unique<MtcpEchoServer>(mtcp.get(), kEchoPort, msg_bytes);
    posix_client = std::make_unique<PosixEchoClient>(ch.kernel.get(),
                                                     Endpoint{sh.ip, kEchoPort}, msg_bytes,
                                                     requests);
  }

  const TimeNs start = env.sim().now();
  out.ok = env.RunUntil(finished, 3600 * kSecond);
  out.elapsed = env.sim().now() - start;
  if (demi_client) {
    out.latency = demi_client->latency();
    out.completed = demi_client->completed();
    out.ok = out.ok && !demi_client->failed();
  } else if (posix_client) {
    out.latency = posix_client->latency();
    out.completed = posix_client->completed();
  }
  out.server_counters = sh.cpu->counters();
  out.server_cpu_ns = sh.cpu->busy_ns();
  out.metrics = env.sim().metrics().Snapshot(env.sim().counters(), env.sim().now());
  return out;
}

}  // namespace demi::bench

#endif  // BENCH_ECHO_RUNNERS_H_
