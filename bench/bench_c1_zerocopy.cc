// C1 — §3.2's copy claim: "copying a 4KB page takes 1µs on a 4GHz CPU, adding 50%
// overhead to Redis" (which spends ~2µs of CPU per request).
//
// GET-heavy KV over the POSIX path (kernel copies on both read and write) vs Catnip
// (zero copy), sweeping the value size. We report server CPU per request and the copy
// share, and check the 4KB row against the paper's arithmetic.

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/kv_runners.h"

namespace demi {
namespace {

int Run() {
  bench::Header("C1", "copy overhead vs value size (Section 3.2)",
                "a 4KB copy costs ~1us at 4GHz; on a ~2us Redis request the POSIX "
                "copies add ~50% overhead, growing with value size");
  CostModel cost;
  bench::PrintCostModel(cost);

  bench::Row("%-8s | %-10s %-12s %-12s | %-10s %-12s %-10s | %-9s\n", "value", "posix",
             "posix", "copy", "catnip", "catnip", "catnip", "copy-tax");
  bench::Row("%-8s | %-10s %-12s %-12s | %-10s %-12s %-10s | %-9s\n", "bytes",
             "cpu/req", "p50 rtt", "ns/req", "cpu/req", "p50 rtt", "copies", "vs app");
  bench::Row("--------------------------------------------------------------------------------------------\n");

  bench::Record& rec = bench::Begin("bench_c1_zerocopy", FabricConfig{}.seed);
  constexpr std::uint64_t kRequestsPerClient = 1500;
  constexpr std::size_t kNumKeys = 500;
  rec.config.Add("requests_per_client", kRequestsPerClient).Add("num_keys", kNumKeys);
  bench::Json rows = bench::Json::Array();
  bool shape_ok = true;
  double copy_tax_4k = 0;
  for (const std::size_t value_bytes : {64u, 512u, 1024u, 4096u, 16384u}) {
    bench::KvRunOptions opt;
    opt.cost = cost;
    opt.requests_per_client = kRequestsPerClient;
    opt.workload.num_keys = kNumKeys;
    opt.workload.get_ratio = 1.0;  // pure GET: reply carries the value
    opt.workload.value_bytes = value_bytes;

    opt.kind = "posix";
    auto posix = bench::RunKv(opt);
    opt.kind = "catnip";
    auto catnip = bench::RunKv(opt);

    const double n = static_cast<double>(posix.completed);
    const double posix_cpu = static_cast<double>(posix.server_cpu_ns) / n;
    const double copy_ns =
        static_cast<double>(posix.server_counters.Get(Counter::kBytesCopied)) *
        cost.copy_ns_per_byte / n;
    const double catnip_cpu =
        static_cast<double>(catnip.server_cpu_ns) / static_cast<double>(catnip.completed);
    const double copy_tax = copy_ns / static_cast<double>(cost.kv_request_cpu_ns);
    const std::uint64_t catnip_copied = catnip.server_counters.Get(Counter::kBytesCopied);

    bench::Row("%-8zu | %7.0f ns %9llu ns %9.0f ns | %7.0f ns %9llu ns %10llu | %8.0f%%\n",
               value_bytes, posix_cpu,
               static_cast<unsigned long long>(posix.latency.P50()), copy_ns, catnip_cpu,
               static_cast<unsigned long long>(catnip.latency.P50()),
               static_cast<unsigned long long>(catnip_copied), copy_tax * 100.0);
    rows.Push(bench::Json::Object()
                  .Add("value_bytes", value_bytes)
                  .Add("posix_cpu_ns_per_req", bench::Fixed(posix_cpu, 0))
                  .Add("posix_p50_ns", posix.latency.P50())
                  .Add("posix_copy_ns_per_req", bench::Fixed(copy_ns, 0))
                  .Add("catnip_cpu_ns_per_req", bench::Fixed(catnip_cpu, 0))
                  .Add("catnip_p50_ns", catnip.latency.P50())
                  .Add("catnip_bytes_copied", catnip_copied)
                  .Add("copy_tax_pct", bench::Fixed(copy_tax * 100.0, 0)));

    shape_ok = shape_ok && posix.ok && catnip.ok && catnip_copied == 0 &&
               posix_cpu > catnip_cpu;
    if (value_bytes == 4096) {
      copy_tax_4k = copy_tax;
    }
  }

  std::printf("\npaper arithmetic at 4KB: copy ~1000ns on a %lld ns request = ~50%%; "
              "measured copy tax: %.0f%%\n",
              static_cast<long long>(cost.kv_request_cpu_ns), copy_tax_4k * 100.0);
  std::printf("(POSIX pays the copy twice per GET — request in, 4KB reply out — so "
              "the end-to-end overhead exceeds the single-copy figure.)\n");

  rec.sim.Add("rows", rows).Add("copy_tax_4k_pct", bench::Fixed(copy_tax_4k * 100.0, 0));

  // The per-GET reply copy alone should be ~45-60% of the app's 2us.
  shape_ok = shape_ok && copy_tax_4k > 0.45;
  bench::Verdict(shape_ok, "catnip copies zero bytes at every size; POSIX copy cost "
                           "grows linearly and reaches ~50%+ of app time at 4KB");
  return bench::Finish();
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
