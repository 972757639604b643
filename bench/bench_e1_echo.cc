// E1 — SOSP'21-style headline: echo RTT for the same Demikernel application over
// every library OS, against the POSIX baseline. The application code is IDENTICAL
// across Catnap/Catnip/Catmint — only the libOS (and thus the device) changes, which
// is the portability claim of the paper's abstract.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/echo_runners.h"

namespace demi {
namespace {

int Run() {
  bench::Header("E1", "echo RTT across library OSes (SOSP'21-style headline)",
                "every Demikernel libOS beats the POSIX baseline; RDMA (catmint) has "
                "the lowest latency; catnap pays kernel costs and only buys portability");
  CostModel cost;
  bench::PrintCostModel(cost);

  constexpr std::uint64_t kRequests = 2000;
  constexpr std::size_t kMsg = 64;

  struct Line {
    const char* key;  // record key (RunEcho kind)
    const char* name;
    const char* substrate;
    bench::EchoRun run;
  };
  Line lines[] = {
      {"posix", "posix (baseline)", "kernel TCP + epoll",
       bench::RunEcho("posix", kMsg, kRequests, cost)},
      {"catnap", "catnap", "kernel sockets", bench::RunEcho("catnap", kMsg, kRequests, cost)},
      {"catnip", "catnip", "DPDK-style NIC + user TCP",
       bench::RunEcho("catnip", kMsg, kRequests, cost)},
      {"catmint", "catmint", "RDMA verbs", bench::RunEcho("catmint", kMsg, kRequests, cost)},
  };

  bench::Record& rec = bench::Begin("bench_e1_echo", FabricConfig{}.seed);
  rec.config.Add("requests", kRequests).Add("msg_bytes", kMsg);

  bench::Row("%-18s %-26s %10s %10s %10s %9s %10s %9s %9s\n", "libOS", "substrate",
             "p50 ns", "p99 ns", "mean ns", "sys/req", "copyB/req", "dbell/req",
             "pkts/req");
  bench::Row("--------------------------------------------------------------------------------------------------------------------\n");
  // One metrics snapshot per run (each RunEcho owns a private simulation), keyed by
  // the libOS kind like the per-libOS rows.
  bench::Json metrics = bench::Json::Object();
  for (const Line& line : lines) {
    const double n = static_cast<double>(kRequests);
    const Counters& c = line.run.server_counters;
    const double sys = static_cast<double>(c.Get(Counter::kSyscalls)) / n;
    const double copied = static_cast<double>(c.Get(Counter::kBytesCopied)) / n;
    // Doorbells and packets per request on the server: the doorbell-coalescing and
    // delayed-ACK win shows up here as fewer MMIOs and fewer wire packets for the
    // same request count.
    const double doorbells = static_cast<double>(c.Get(Counter::kDoorbells)) / n;
    const double packets =
        static_cast<double>(c.Get(Counter::kPacketsTx) + c.Get(Counter::kPacketsRx)) / n;
    bench::Row("%-18s %-26s %10llu %10llu %10.0f %9.1f %10.0f %9.2f %9.2f\n", line.name,
               line.substrate, static_cast<unsigned long long>(line.run.latency.P50()),
               static_cast<unsigned long long>(line.run.latency.P99()),
               line.run.latency.mean(), sys, copied, doorbells, packets);
    rec.sim.Add(line.key, bench::Json::Object()
                              .Add("p50_ns", line.run.latency.P50())
                              .Add("p99_ns", line.run.latency.P99())
                              .Add("mean_ns", bench::Fixed(line.run.latency.mean(), 0))
                              .Add("syscalls_per_op", bench::Fixed(sys, 1))
                              .Add("bytes_copied_per_op", bench::Fixed(copied, 0))
                              .Add("doorbells_per_op", bench::Fixed(doorbells, 2))
                              .Add("packets_per_op", bench::Fixed(packets, 2)));
    metrics.Add(line.key, bench::Raw(line.run.metrics.ToJson()));
  }

  const auto p50 = [&](int i) { return lines[i].run.latency.P50(); };
  const bool all_ok =
      lines[0].run.ok && lines[1].run.ok && lines[2].run.ok && lines[3].run.ok;
  const bool ordering = p50(3) < p50(2) && p50(2) < p50(0) &&  // catmint < catnip < posix
                        p50(1) <= p50(0) * 12 / 10;            // catnap ~ posix (10-20%)

  const double catnip_speedup = static_cast<double>(p50(0)) / static_cast<double>(p50(2));
  const double catmint_speedup = static_cast<double>(p50(0)) / static_cast<double>(p50(3));
  rec.sim.Add("catnip_speedup", bench::Fixed(catnip_speedup, 1))
      .Add("catmint_speedup", bench::Fixed(catmint_speedup, 1))
      .Add("metrics", metrics);
  std::printf("\ncatnap tracks the baseline (it still pays syscalls+copies — it buys "
              "portability, not speed);\ncatnip beats the kernel by %.1fx; catmint's "
              "NIC-offloaded transport is lowest at %.1fx.\n",
              catnip_speedup, catmint_speedup);
  bench::Verdict(all_ok && ordering,
                 "catmint < catnip < posix ~ catnap in RTT, same application code");
  return bench::Finish();
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
