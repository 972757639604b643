// A Redis-like key-value server on Demikernel queues — the paper's motivating
// workload (§3.2) — plus a load-generating client fleet, with the same application
// run over the POSIX baseline for comparison.
//
// Usage: ./build/examples/kv_server [catnip|catnap|catmint|posix] [num_clients]

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "include/demikernel/demikernel.h"
#include "src/apps/actors.h"

namespace {

constexpr std::uint16_t kPort = 6379;

struct RunResult {
  demi::Histogram latency;
  std::uint64_t requests = 0;
  double seconds = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t bytes_copied = 0;
};

RunResult RunDemi(const std::string& libos_kind, int num_clients) {
  using namespace demi;
  TestHarness env;
  HostOptions server_opts;
  HostOptions client_opts;
  client_opts.charges_clock = false;
  if (libos_kind == "catmint") {
    server_opts.with_rdma = true;
    server_opts.with_nic = false;
    server_opts.with_kernel = false;
    client_opts.with_rdma = true;
    client_opts.with_nic = false;
    client_opts.with_kernel = false;
  }
  auto& sh = env.AddHost("server", "10.0.0.1", server_opts);

  LibOS* server_libos = nullptr;
  if (libos_kind == "catnip") {
    server_libos = &env.Catnip(sh);
  } else if (libos_kind == "catnap") {
    server_libos = &env.Catnap(sh);
  } else {
    server_libos = &env.Catmint(sh);
  }
  KvEngine engine(sh.cpu.get());
  DemiServer server(server_libos, kPort, KvReplies(&engine));

  KvWorkloadConfig wcfg;
  wcfg.num_keys = 1000;
  wcfg.get_ratio = 0.9;
  wcfg.value_bytes = 64;
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    KvWorkload loader(wcfg);
    (void)engine.Execute(loader.LoadCommand(k));
  }

  std::vector<std::unique_ptr<KvWorkload>> workloads;
  std::vector<std::unique_ptr<DemiClient>> clients;
  for (int i = 0; i < num_clients; ++i) {
    auto& ch = env.AddHost("client" + std::to_string(i),
                           "10.0.0." + std::to_string(10 + i), client_opts);
    LibOS* cl = nullptr;
    if (libos_kind == "catnip") {
      cl = &env.Catnip(ch);
    } else if (libos_kind == "catnap") {
      cl = &env.Catnap(ch);
    } else {
      cl = &env.Catmint(ch);
    }
    wcfg.seed = 42 + i;
    workloads.push_back(std::make_unique<KvWorkload>(wcfg));
    clients.push_back(std::make_unique<DemiClient>(
        cl, Endpoint{sh.ip, kPort}, 2000, KvRequests(cl, workloads.back().get()), AnyReply));
  }

  const TimeNs start = env.sim().now();
  env.RunUntil(
      [&] {
        for (const auto& c : clients) {
          if (!c->done()) {
            return false;
          }
        }
        return true;
      },
      3600 * kSecond);

  RunResult out;
  for (const auto& c : clients) {
    out.latency.Merge(c->latency());
    out.requests += c->completed();
  }
  out.seconds = ToSeconds(env.sim().now() - start);
  out.syscalls = sh.cpu->counters().Get(Counter::kSyscalls);
  out.bytes_copied = sh.cpu->counters().Get(Counter::kBytesCopied);
  return out;
}

RunResult RunPosix(int num_clients) {
  using namespace demi;
  TestHarness env;
  auto& sh = env.AddHost("server", "10.0.0.1");
  KvEngine engine(sh.cpu.get());
  PosixServer server(sh.kernel.get(), kPort, PosixKv(&engine));

  KvWorkloadConfig wcfg;
  wcfg.num_keys = 1000;
  wcfg.get_ratio = 0.9;
  wcfg.value_bytes = 64;
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    KvWorkload loader(wcfg);
    (void)engine.Execute(loader.LoadCommand(k));
  }

  HostOptions client_opts;
  client_opts.charges_clock = false;
  std::vector<std::unique_ptr<KvWorkload>> workloads;
  std::vector<std::unique_ptr<PosixKvClient>> clients;
  for (int i = 0; i < num_clients; ++i) {
    auto& ch = env.AddHost("client" + std::to_string(i),
                           "10.0.0." + std::to_string(10 + i), client_opts);
    wcfg.seed = 42 + i;
    workloads.push_back(std::make_unique<KvWorkload>(wcfg));
    clients.push_back(std::make_unique<PosixKvClient>(ch.kernel.get(), Endpoint{sh.ip, kPort},
                                                      workloads.back().get(), 2000));
  }
  const TimeNs start = env.sim().now();
  env.RunUntil(
      [&] {
        for (const auto& c : clients) {
          if (!c->done()) {
            return false;
          }
        }
        return true;
      },
      3600 * kSecond);

  RunResult out;
  for (const auto& c : clients) {
    out.latency.Merge(c->latency());
    out.requests += c->completed();
  }
  out.seconds = ToSeconds(env.sim().now() - start);
  out.syscalls = sh.cpu->counters().Get(Counter::kSyscalls);
  out.bytes_copied = sh.cpu->counters().Get(Counter::kBytesCopied);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string kind = argc > 1 ? argv[1] : "catnip";
  const int num_clients = argc > 2 ? std::atoi(argv[2]) : 4;

  std::printf("KV server (%s), %d closed-loop clients, 90%% GET, 64B values\n",
              kind.c_str(), num_clients);
  const RunResult r = kind == "posix" ? RunPosix(num_clients) : RunDemi(kind, num_clients);

  std::printf("  requests: %llu in %.3f simulated seconds  ->  %.0f req/s\n",
              static_cast<unsigned long long>(r.requests), r.seconds,
              static_cast<double>(r.requests) / r.seconds);
  std::printf("  latency:  %s\n", r.latency.Summary("ns").c_str());
  std::printf("  server-side syscalls: %llu, bytes copied: %llu\n",
              static_cast<unsigned long long>(r.syscalls),
              static_cast<unsigned long long>(r.bytes_copied));
  return 0;
}
