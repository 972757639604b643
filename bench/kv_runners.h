// Shared KV-experiment runners for C1, C2, and E2: a KV server in the given
// architecture, a preloaded store, and a fleet of closed-loop clients.

#ifndef BENCH_KV_RUNNERS_H_
#define BENCH_KV_RUNNERS_H_

#include <memory>
#include <string>
#include <vector>

#include "bench/topology.h"
#include "src/apps/actors.h"

namespace demi::bench {

constexpr std::uint16_t kKvPort = 6379;

struct KvRunOptions {
  std::string kind = "catnip";  // catnip | catnap | catmint | posix
  int clients = 1;
  std::uint64_t requests_per_client = 1000;
  KvWorkloadConfig workload;
  CostModel cost;
  int client_fragments = 1;       // posix only: split each request into N writes
  TimeNs fragment_gap_ns = 0;     // posix only: spacing between fragments
};

struct KvRunResult {
  Histogram latency;
  std::uint64_t completed = 0;
  Counters server_counters;
  std::uint64_t server_cpu_ns = 0;
  TimeNs elapsed = 0;
  bool ok = false;

  double throughput_rps() const {
    return elapsed > 0 ? static_cast<double>(completed) / ToSeconds(elapsed) : 0.0;
  }
};

inline KvRunResult RunKv(KvRunOptions opt) {
  TestHarness env(opt.cost);
  KvRunResult out;

  const Topology topo = TopologyFor(opt.kind);
  auto& sh = env.AddHost("server", "10.0.0.1", topo.server);

  KvEngine engine(sh.cpu.get());
  std::unique_ptr<DemiServer> demi_server;
  std::unique_ptr<PosixServer> posix_server;
  if (opt.kind == "posix") {
    posix_server = std::make_unique<PosixServer>(sh.kernel.get(), kKvPort, PosixKv(&engine));
  } else {
    demi_server = std::make_unique<DemiServer>(DemiLibOS(env, sh, opt.kind), kKvPort,
                                               KvReplies(&engine));
  }

  // Preload the store (control path; not measured).
  {
    KvWorkload loader(opt.workload);
    for (std::uint64_t k = 0; k < opt.workload.num_keys; ++k) {
      (void)engine.Execute(loader.LoadCommand(k));
    }
  }
  const std::uint64_t cpu0 = sh.cpu->busy_ns();

  std::vector<std::unique_ptr<KvWorkload>> workloads;
  std::vector<std::unique_ptr<DemiClient>> demi_clients;
  std::vector<std::unique_ptr<PosixKvClient>> posix_clients;
  for (int i = 0; i < opt.clients; ++i) {
    auto& ch = env.AddHost("client" + std::to_string(i),
                           "10.0.1." + std::to_string(1 + i), topo.client);
    KvWorkloadConfig wcfg = opt.workload;
    wcfg.seed = opt.workload.seed + 7919 * static_cast<std::uint64_t>(i + 1);
    workloads.push_back(std::make_unique<KvWorkload>(wcfg));
    if (opt.kind == "posix") {
      posix_clients.push_back(std::make_unique<PosixKvClient>(
          ch.kernel.get(), Endpoint{sh.ip, kKvPort}, workloads.back().get(),
          opt.requests_per_client, opt.client_fragments, opt.fragment_gap_ns));
    } else {
      LibOS* cl = DemiLibOS(env, ch, opt.kind);
      demi_clients.push_back(std::make_unique<DemiClient>(
          cl, Endpoint{sh.ip, kKvPort}, opt.requests_per_client,
          KvRequests(cl, workloads.back().get()), AnyReply));
    }
  }

  const TimeNs start = env.sim().now();
  out.ok = env.RunUntil(
      [&] {
        for (const auto& c : demi_clients) {
          if (!c->done()) {
            return false;
          }
        }
        for (const auto& c : posix_clients) {
          if (!c->done()) {
            return false;
          }
        }
        return true;
      },
      3600 * kSecond);
  out.elapsed = env.sim().now() - start;

  for (const auto& c : demi_clients) {
    out.latency.Merge(c->latency());
    out.completed += c->completed();
    out.ok = out.ok && !c->failed();
  }
  for (const auto& c : posix_clients) {
    out.latency.Merge(c->latency());
    out.completed += c->completed();
  }
  out.server_counters = sh.cpu->counters();
  out.server_cpu_ns = sh.cpu->busy_ns() - cpu0;
  return out;
}

}  // namespace demi::bench

#endif  // BENCH_KV_RUNNERS_H_
