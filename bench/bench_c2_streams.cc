// C2 — §3.2's stream claim: "UNIX pipes force applications to operate on streams of
// data; Redis can only process a read operation after the entire request has arrived;
// by the time Redis has inspected a pipe and found that its read operation is
// incomplete, it could have processed a request that was ready."
//
// Scenario: a trickling client fragments each request into N writes with a gap, while
// the POSIX server is woken per fragment and re-scans the partial buffer for nothing.
// The same workload over Demikernel queues never surfaces a partial element.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/kv_runners.h"

namespace demi {
namespace {

int Run() {
  bench::Header("C2", "byte streams vs atomic queue units (Section 3.2)",
                "partial requests waste server work under the POSIX stream "
                "abstraction; atomic queue elements make partial requests impossible");
  CostModel cost;
  bench::PrintCostModel(cost);

  bench::Row("%-10s | %-12s %-14s %-14s | %-12s %-14s | %-10s %-10s\n", "fragments",
             "posix scans", "posix wasted", "posix p50", "demi scans", "demi p50",
             "demi", "demi");
  bench::Row("%-10s | %-12s %-14s %-14s | %-12s %-14s | %-10s %-10s\n", "per req",
             "(partial)", "cpu ns/req", "latency", "(partial)", "latency", "dbell/op",
             "pkts/op");
  bench::Row("-------------------------------------------------------------------------------------------------------------\n");

  constexpr std::uint64_t kRequestsPerClient = 400;
  constexpr std::size_t kValueBytes = 512;
  constexpr TimeNs kFragmentGap = 15 * kMicrosecond;
  bench::Record& rec = bench::Begin("bench_c2_streams", FabricConfig{}.seed);
  rec.config.Add("requests_per_client", kRequestsPerClient)
      .Add("value_bytes", kValueBytes)
      .Add("fragment_gap_ns", kFragmentGap);
  bench::Json rows = bench::Json::Array();
  bool shape_ok = true;
  std::uint64_t posix_scans_at_8 = 0;
  for (const int fragments : {1, 2, 4, 8}) {
    bench::KvRunOptions opt;
    opt.cost = cost;
    opt.requests_per_client = kRequestsPerClient;
    opt.workload.num_keys = 200;
    opt.workload.get_ratio = 0.0;   // SETs with a payload worth fragmenting
    opt.workload.value_bytes = kValueBytes;
    opt.client_fragments = fragments;
    opt.fragment_gap_ns = kFragmentGap;

    opt.kind = "posix";
    auto posix = bench::RunKv(opt);

    // Demikernel comparison: pushes are atomic, so client-side trickling does not
    // exist — the element leaves as one unit regardless.
    opt.kind = "catnip";
    auto demi = bench::RunKv(opt);

    const std::uint64_t posix_scans = posix.server_counters.Get(Counter::kStreamScans);
    const double wasted_ns =
        static_cast<double>(posix_scans * cost.partial_scan_ns +
                            // each wasted wake also paid a read syscall + socket work
                            posix_scans * (cost.syscall_ns + cost.kernel_socket_ns)) /
        static_cast<double>(posix.completed);

    // Per-op device cost on the Demikernel server: doorbell coalescing and delayed
    // ACKs shrink both the MMIO count and the raw packet count for the same SETs.
    const double ops = static_cast<double>(demi.completed ? demi.completed : 1);
    const double demi_doorbells =
        static_cast<double>(demi.server_counters.Get(Counter::kDoorbells)) / ops;
    const double demi_packets =
        static_cast<double>(demi.server_counters.Get(Counter::kPacketsTx) +
                            demi.server_counters.Get(Counter::kPacketsRx)) /
        ops;
    const std::uint64_t demi_scans = demi.server_counters.Get(Counter::kStreamScans);
    bench::Row("%-10d | %12llu %11.0f ns %11llu ns | %12llu %11llu ns | %-10.2f %-10.2f\n",
               fragments, static_cast<unsigned long long>(posix_scans),
               wasted_ns, static_cast<unsigned long long>(posix.latency.P50()),
               static_cast<unsigned long long>(demi_scans),
               static_cast<unsigned long long>(demi.latency.P50()), demi_doorbells,
               demi_packets);
    rows.Push(bench::Json::Object()
                  .Add("fragments", fragments)
                  .Add("posix_partial_scans", posix_scans)
                  .Add("posix_wasted_cpu_ns_per_req", bench::Fixed(wasted_ns, 0))
                  .Add("posix_p50_ns", posix.latency.P50())
                  .Add("demi_partial_scans", demi_scans)
                  .Add("demi_p50_ns", demi.latency.P50())
                  .Add("demi_doorbells_per_op", bench::Fixed(demi_doorbells, 2))
                  .Add("demi_packets_per_op", bench::Fixed(demi_packets, 2)));

    shape_ok = shape_ok && posix.ok && demi.ok && demi_scans == 0;
    if (fragments == 8) {
      posix_scans_at_8 = posix_scans;
    }
  }

  rec.sim.Add("rows", rows);

  std::printf("\nevery POSIX partial scan is a wakeup + syscall + inspection that "
              "produced nothing;\nthe Demikernel server is woken once per COMPLETE "
              "element (Section 4.2's granularity guarantee).\n");
  bench::Verdict(shape_ok && posix_scans_at_8 > 0,
                 "wasted scans grow with fragmentation on the stream path and are "
                 "identically zero on the queue path");
  return bench::Finish();
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
