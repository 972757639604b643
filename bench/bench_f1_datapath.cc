// F1 — Figure 1: traditional architecture vs kernel-bypass architecture.
//
// The figure is qualitative (where the data path runs); we quantify it: per-request
// server-side cost breakdown for the same echo application over the legacy kernel
// (app -> syscall -> kernel stack -> device) and over Catnip (app -> libOS -> device).

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/echo_runners.h"

namespace demi {
namespace {

using bench::Json;

struct Breakdown {
  double syscall_ns = 0;
  double copy_ns = 0;
  double stack_ns = 0;  // protocol processing (kernel or user cost profile)
  double irq_ns = 0;
  double app_other_ns = 0;
  double total_ns = 0;
  double rtt_p50 = 0;
};

Breakdown Analyze(const bench::EchoRun& run, const CostModel& cost, bool kernel_path,
                  std::uint64_t requests) {
  Breakdown b;
  const auto& c = run.server_counters;
  const double n = static_cast<double>(requests);
  b.syscall_ns = static_cast<double>(c.Get(Counter::kSyscalls) * cost.syscall_ns) / n;
  b.copy_ns = static_cast<double>(c.Get(Counter::kBytesCopied)) * cost.copy_ns_per_byte / n;
  const double stack_unit = kernel_path
                                ? static_cast<double>(cost.kernel_stack_rx_ns + cost.kernel_stack_tx_ns) / 2
                                : static_cast<double>(cost.user_stack_rx_ns + cost.user_stack_tx_ns) / 2;
  b.stack_ns = static_cast<double>(c.Get(Counter::kPacketsRx) + c.Get(Counter::kPacketsTx)) *
               stack_unit / n;
  b.irq_ns = static_cast<double>(c.Get(Counter::kInterrupts) * cost.interrupt_ns +
                                 c.Get(Counter::kContextSwitches) * cost.context_switch_ns) /
             n;
  b.total_ns = static_cast<double>(run.server_cpu_ns) / n;
  b.app_other_ns = b.total_ns - b.syscall_ns - b.copy_ns - b.stack_ns - b.irq_ns;
  b.rtt_p50 = static_cast<double>(run.latency.P50());
  return b;
}

Json BreakdownJson(const Breakdown& b) {
  return Json::Object()
      .Add("syscall_ns", bench::Fixed(b.syscall_ns, 0))
      .Add("copy_ns", bench::Fixed(b.copy_ns, 0))
      .Add("stack_ns", bench::Fixed(b.stack_ns, 0))
      .Add("irq_ns", bench::Fixed(b.irq_ns, 0))
      .Add("app_other_ns", bench::Fixed(b.app_other_ns, 0))
      .Add("total_ns", bench::Fixed(b.total_ns, 0))
      .Add("rtt_p50_ns", bench::Fixed(b.rtt_p50, 0));
}

int Run() {
  bench::Header("F1", "traditional vs kernel-bypass data path (Figure 1)",
                "kernel-bypass removes the OS kernel from the I/O path; the remaining "
                "per-I/O cost is the device and the (now user-level) I/O stack");
  CostModel cost;
  bench::PrintCostModel(cost);

  constexpr std::uint64_t kRequests = 2000;
  constexpr std::size_t kMsg = 64;
  bench::Record& rec = bench::Begin("bench_f1_datapath", FabricConfig{}.seed);
  rec.config.Add("requests", kRequests).Add("msg_bytes", kMsg);
  auto posix = bench::RunEcho("posix", kMsg, kRequests, cost);
  auto catnip = bench::RunEcho("catnip", kMsg, kRequests, cost);

  std::printf("per-request server-side CPU breakdown, 64B echo, %llu requests:\n\n",
              static_cast<unsigned long long>(kRequests));
  const Breakdown bp = Analyze(posix, cost, /*kernel_path=*/true, kRequests);
  const Breakdown bc = Analyze(catnip, cost, /*kernel_path=*/false, kRequests);

  bench::Row("%-24s %16s %16s\n", "component (ns/req)", "traditional", "kernel-bypass");
  bench::Row("%-24s %16.0f %16.0f\n", "syscall crossings", bp.syscall_ns, bc.syscall_ns);
  bench::Row("%-24s %16.0f %16.0f\n", "data copies", bp.copy_ns, bc.copy_ns);
  bench::Row("%-24s %16.0f %16.0f\n", "network stack", bp.stack_ns, bc.stack_ns);
  bench::Row("%-24s %16.0f %16.0f\n", "interrupts/ctx-switch", bp.irq_ns, bc.irq_ns);
  bench::Row("%-24s %16.0f %16.0f\n", "app + libOS + other", bp.app_other_ns,
             bc.app_other_ns);
  bench::Row("%-24s %16.0f %16.0f\n", "TOTAL server CPU", bp.total_ns, bc.total_ns);
  bench::Row("%-24s %16.0f %16.0f\n", "client-observed RTT p50", bp.rtt_p50, bc.rtt_p50);

  const double cpu_ratio = bp.total_ns / bc.total_ns;
  const double rtt_ratio = bp.rtt_p50 / bc.rtt_p50;
  const double bypass_kernel_ns = bc.syscall_ns + bc.copy_ns + bc.irq_ns;
  std::printf("\nkernel-bypass advantage: %.2fx less server CPU, %.2fx lower RTT\n",
              cpu_ratio, rtt_ratio);
  std::printf("kernel components (syscall+copy+irq) on the bypass path: %.0f ns\n",
              bypass_kernel_ns);
  rec.sim.Add("traditional", BreakdownJson(bp))
      .Add("kernel_bypass", BreakdownJson(bc))
      .Add("cpu_ratio", bench::Fixed(cpu_ratio, 2))
      .Add("rtt_ratio", bench::Fixed(rtt_ratio, 2))
      .Add("bypass_kernel_ns", bench::Fixed(bypass_kernel_ns, 0));

  bench::Verdict(posix.ok && catnip.ok && cpu_ratio > 1.5 && rtt_ratio > 1.2 &&
                     bypass_kernel_ns < 50.0,
                 "the kernel vanishes from the bypass data path and both CPU and RTT "
                 "drop substantially");
  return bench::Finish();
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
