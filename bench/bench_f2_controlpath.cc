// F2 — Figure 2: the Demikernel split — the legacy kernel keeps the control path
// (device allocation, connection setup), the libOS owns the data path.
//
// Three measurements, coarse to fine:
//   1. The one-time control-path cost of bringing up a Catnip application
//      (device-queue lease, IOMMU mapping, connect handshake) against the
//      steady-state per-I/O cost: kernel syscalls appear ONLY during setup.
//   2. What the control path itself costs once it matters (§3.1: connection churn
//      makes setup a steady-state expense): the same control ops priced as full
//      syscall crossings vs fastcall-style dedicated entries, and an accept storm
//      drained one crossing per connection vs one AcceptBatch crossing total.
//   3. The churn-heavy adaptive echo scenario (DESIGN.md §15) with the path policy
//      off vs on: cold flows demote to the kernel path and visibly return bypass
//      flow slots to the tenant pool while hot flows keep bypass latency.
//
// Environment:
//   BENCH_SMOKE=1      shorter arms (ctest smoke).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/actors.h"
#include "src/common/logging.h"
#include "src/core/harness.h"
#include "src/load/adaptive_harness.h"

namespace demi {
namespace {

using bench::Json;

// --- part 2: control-op pricing, full crossing vs fastcall -----------------------

struct ControlArm {
  double connect_cpu_per_op = 0;  // client kernel CPU ns per Connect control op
  double drain_cpu = 0;           // server kernel CPU ns to drain the whole backlog
  std::uint64_t drain_syscalls = 0;
  std::uint64_t drain_fastcalls = 0;
  std::uint64_t accepted = 0;
};

// One arm: `conns` clients connect, then the server drains the accept backlog —
// one Accept crossing per connection, or one AcceptBatch crossing total.
ControlArm RunControlArm(bool fastcall, bool batch, int conns) {
  TestHarness env;
  auto& server = env.AddHost("server", "10.0.0.1");
  auto& client = env.AddHost("client", "10.0.0.2");
  if (fastcall) {
    server.kernel->SetFastcallEnabled(true);
    client.kernel->SetFastcallEnabled(true);
  }
  SimKernel& sk = *server.kernel;
  const int lfd = *sk.Socket();
  DEMI_CHECK(sk.Bind(lfd, 7).ok());
  DEMI_CHECK(sk.Listen(lfd).ok());

  std::vector<int> cfds;
  cfds.reserve(conns);
  for (int i = 0; i < conns; ++i) {
    cfds.push_back(*client.kernel->Socket());
  }
  const std::uint64_t connect_cpu0 = client.cpu->busy_ns();
  for (const int fd : cfds) {
    DEMI_CHECK(client.kernel->Connect(fd, Endpoint{server.ip, 7}).ok());
  }
  ControlArm out;
  out.connect_cpu_per_op =
      static_cast<double>(client.cpu->busy_ns() - connect_cpu0) / conns;

  DEMI_CHECK(env.RunUntil([&] {
    for (const int fd : cfds) {
      if (!client.kernel->ConnectSucceeded(fd)) {
        return false;
      }
    }
    return true;
  }));
  env.sim().RunFor(1 * kMillisecond);  // final ACKs land in the server backlog
  DEMI_CHECK(sk.AcceptReady(lfd));

  auto& counters = env.sim().counters();
  const std::uint64_t sys0 = counters.Get(Counter::kSyscalls);
  const std::uint64_t fast0 = counters.Get(Counter::kFastcallCrossings);
  const std::uint64_t cpu0 = server.cpu->busy_ns();
  if (batch) {
    auto fds = sk.AcceptBatch(lfd, static_cast<std::size_t>(conns) * 2);
    DEMI_CHECK(fds.ok());
    out.accepted = fds->size();
  } else {
    for (int i = 0; i < conns; ++i) {
      auto fd = sk.Accept(lfd);
      DEMI_CHECK(fd.ok());
      ++out.accepted;
    }
  }
  out.drain_cpu = static_cast<double>(server.cpu->busy_ns() - cpu0);
  out.drain_syscalls = counters.Get(Counter::kSyscalls) - sys0;
  out.drain_fastcalls = counters.Get(Counter::kFastcallCrossings) - fast0;
  return out;
}

// --- part 3: the churn-heavy adaptive scenario, policy off vs on ------------------

AdaptiveHarnessConfig ScenarioConfig(bool adaptive, bool smoke) {
  AdaptiveHarnessConfig cfg;
  cfg.hot_flows = 2;
  cfg.cold_flows = 4;
  cfg.hot_period_ns = 20 * kMicrosecond;  // ~50k req/s: safely above promote band
  cfg.cold_period_ns = 2 * kMillisecond;  // ~500 req/s: safely below demote band
  cfg.churn_waves = smoke ? 6 : 16;
  cfg.churn_wave_size = 6;
  cfg.churn_period_ns = 3 * kMillisecond;
  cfg.adaptive = adaptive;
  cfg.fastcall = adaptive;  // the adaptive arm also runs the fastcall table
  cfg.max_flow_slots = 6;   // all six flows fit at connect time
  cfg.run_ns = smoke ? 25 * kMillisecond : 60 * kMillisecond;
  cfg.seed = 11;
  return cfg;
}

Json ControlArmJson(const ControlArm& a) {
  return Json::Object()
      .Add("connect_cpu_ns_per_op", bench::Fixed(a.connect_cpu_per_op, 1))
      .Add("drain_cpu_ns", bench::Fixed(a.drain_cpu, 0))
      .Add("drain_syscalls", a.drain_syscalls)
      .Add("drain_fastcalls", a.drain_fastcalls)
      .Add("accepted", a.accepted);
}

Json ScenarioJson(const AdaptiveScenarioResult& r) {
  return Json::Object()
      .Add("hot_p50_ns", r.hot_p50_ns)
      .Add("hot_p99_ns", r.hot_p99_ns)
      .Add("cold_p50_ns", r.cold_p50_ns)
      .Add("hot_completed", r.hot_completed)
      .Add("cold_completed", r.cold_completed)
      .Add("churn_conns_per_sec", bench::Fixed(r.churn_conns_per_sec, 0))
      .Add("promotions", r.promotions)
      .Add("demotions", r.demotions)
      .Add("syscalls", r.syscalls)
      .Add("fastcall_crossings", r.fastcall_crossings)
      .Add("accepts_batched", r.accepts_batched)
      .Add("live_flow_slots", r.live_flow_slots)
      .Add("flow_slots_released", r.flow_slots_released);
}

int Run() {
  const bool smoke = []() {
    const char* s = std::getenv("BENCH_SMOKE");
    return s != nullptr && s[0] == '1';
  }();

  bench::Header("F2", "control path vs data path (Figure 2)",
                "the control path stays in the legacy kernel; the performance-"
                "critical data path never enters it — and when churn makes the "
                "control path hot, fastcall pricing + batched accepts + adaptive "
                "path placement keep it cheap");
  CostModel cost;
  bench::PrintCostModel(cost);
  bench::Record& rec =
      bench::Begin("bench_f2_controlpath", ScenarioConfig(false, smoke).seed);

  TestHarness env(cost);
  auto& sh = env.AddHost("server", "10.0.0.1");
  HostOptions client_opts;
  client_opts.charges_clock = false;
  auto& ch = env.AddHost("client", "10.0.0.2", client_opts);

  // --- phase 1: control path (libOS bring-up + listen/connect/accept) ---
  const TimeNs setup_start = env.sim().now();
  const std::uint64_t sys0 = sh.cpu->counters().Get(Counter::kSyscalls);

  auto& server_libos = env.Catnip(sh);     // leases NIC queue, maps memory (kernel!)
  auto& client_libos = env.Catnip(ch);
  DemiServer server(&server_libos, 7, EchoReply);
  DemiClient client(&client_libos, Endpoint{sh.ip, 7}, 1, EchoRequests(&client_libos, 64),
                    EchoReplyOk(64));
  env.RunUntil([&] { return client.completed() >= 1; }, 60 * kSecond);

  const TimeNs setup_elapsed = env.sim().now() - setup_start;
  const std::uint64_t setup_syscalls = sh.cpu->counters().Get(Counter::kSyscalls) - sys0;

  // --- phase 2: steady-state data path ---
  const int kSteadyOps = smoke ? 1000 : 5000;
  DemiClient steady(&client_libos, Endpoint{sh.ip, 7}, kSteadyOps,
                    EchoRequests(&client_libos, 64), EchoReplyOk(64));
  const TimeNs data_start = env.sim().now();
  const std::uint64_t sys1 = sh.cpu->counters().Get(Counter::kSyscalls);
  const std::uint64_t cpu1 = sh.cpu->busy_ns();
  env.RunUntil([&] { return steady.done(); }, 3600 * kSecond);
  const TimeNs data_elapsed = env.sim().now() - data_start;
  const std::uint64_t data_syscalls = sh.cpu->counters().Get(Counter::kSyscalls) - sys1;
  const double per_io_cpu =
      static_cast<double>(sh.cpu->busy_ns() - cpu1) / kSteadyOps;

  bench::Row("%-44s %14s %12s\n", "phase", "elapsed", "kernel sys");
  bench::Row("%-44s %11.1f us %12llu\n",
             "control path: libOS bring-up + first echo", ToMicros(setup_elapsed),
             static_cast<unsigned long long>(setup_syscalls));
  char data_label[64];
  std::snprintf(data_label, sizeof(data_label), "data path: %d echos", kSteadyOps);
  bench::Row("%-44s %11.1f us %12llu\n", data_label, ToMicros(data_elapsed),
             static_cast<unsigned long long>(data_syscalls));
  bench::Row("%-44s %11.3f us %12s\n", "data path: per-I/O server CPU",
             per_io_cpu / 1000.0, "0");

  const double amortized_over = static_cast<double>(setup_elapsed) /
                                (static_cast<double>(data_elapsed) / kSteadyOps);
  std::printf("\nsetup cost equals ~%.0f steady-state I/Os; after that the kernel is "
              "idle on this host.\n\n", amortized_over);
  rec.sim.Add("phases", Json::Object()
                            .Add("setup_us", bench::Fixed(ToMicros(setup_elapsed), 1))
                            .Add("setup_syscalls", setup_syscalls)
                            .Add("data_us", bench::Fixed(ToMicros(data_elapsed), 1))
                            .Add("data_syscalls", data_syscalls)
                            .Add("per_io_cpu_us", bench::Fixed(per_io_cpu / 1000.0, 3))
                            .Add("setup_in_ios", bench::Fixed(amortized_over, 0)));

  // --- part 2: control-op pricing (full syscall vs fastcall, accept vs batch) ---
  const int kConns = smoke ? 8 : 32;
  rec.config.Add("steady_ops", kSteadyOps)
      .Add("control_conns", kConns)
      .Add("syscall_ns", cost.syscall_ns)
      .Add("fastcall_crossing_ns", cost.fastcall_crossing_ns)
      .Add("smoke", smoke);
  // Arm order matches kArmKeys and kRowNames: {fastcall?} x {batch?}.
  ControlArm arms[4];
  arms[0] = RunControlArm(/*fastcall=*/false, /*batch=*/false, kConns);
  arms[1] = RunControlArm(/*fastcall=*/false, /*batch=*/true, kConns);
  arms[2] = RunControlArm(/*fastcall=*/true, /*batch=*/false, kConns);
  arms[3] = RunControlArm(/*fastcall=*/true, /*batch=*/true, kConns);

  bench::Row("%-26s %14s | %12s %10s %10s\n", "control path pricing",
             "connect ns/op", "drain CPU ns", "syscalls", "fastcalls");
  static const char* kRowNames[4] = {"full crossing, accept xN", "full crossing, batch",
                                     "fastcall, accept xN", "fastcall, batch"};
  static const char* kArmKeys[4] = {"full_accept", "full_batch", "fastcall_accept",
                                    "fastcall_batch"};
  Json control_ops = Json::Object();
  for (int i = 0; i < 4; ++i) {
    bench::Row("%-26s %14.1f | %12.0f %10llu %10llu\n", kRowNames[i],
               arms[i].connect_cpu_per_op, arms[i].drain_cpu,
               static_cast<unsigned long long>(arms[i].drain_syscalls),
               static_cast<unsigned long long>(arms[i].drain_fastcalls));
    control_ops.Add(kArmKeys[i], ControlArmJson(arms[i]));
  }
  rec.sim.Add("control_ops", control_ops);
  std::printf("(%d connections per arm; a batch drain is ONE crossing total)\n\n",
              kConns);

  // --- part 3: adaptive scenario, path policy off vs on ---
  AdaptiveScenarioResult off_arm;
  {
    AdaptiveEchoHarness h(ScenarioConfig(/*adaptive=*/false, smoke));
    off_arm = h.Run();
  }
  AdaptiveScenarioResult on_arm;
  {
    AdaptiveEchoHarness h(ScenarioConfig(/*adaptive=*/true, smoke));
    on_arm = h.Run();
  }

  rec.sim.Add("adaptive_scenario", Json::Object()
                                       .Add("policy_off", ScenarioJson(off_arm))
                                       .Add("policy_on", ScenarioJson(on_arm)));
  bench::Row("%-30s %14s %14s\n", "adaptive scenario", "policy off", "policy on");
  bench::Row("%-30s %14llu %14llu\n", "hot flow RTT p50 (ns)",
             static_cast<unsigned long long>(off_arm.hot_p50_ns),
             static_cast<unsigned long long>(on_arm.hot_p50_ns));
  bench::Row("%-30s %14llu %14llu\n", "cold flow RTT p50 (ns)",
             static_cast<unsigned long long>(off_arm.cold_p50_ns),
             static_cast<unsigned long long>(on_arm.cold_p50_ns));
  bench::Row("%-30s %14.0f %14.0f\n", "churn conns/sec",
             off_arm.churn_conns_per_sec, on_arm.churn_conns_per_sec);
  bench::Row("%-30s %14llu %14llu\n", "demotions",
             static_cast<unsigned long long>(off_arm.demotions),
             static_cast<unsigned long long>(on_arm.demotions));
  bench::Row("%-30s %14llu %14llu\n", "policy-held bypass slots",
             static_cast<unsigned long long>(off_arm.live_flow_slots),
             static_cast<unsigned long long>(on_arm.live_flow_slots));
  bench::Row("%-30s %14llu %14llu\n", "flow slots released",
             static_cast<unsigned long long>(off_arm.flow_slots_released),
             static_cast<unsigned long long>(on_arm.flow_slots_released));
  bench::Row("%-30s %14llu %14llu\n", "fastcall crossings",
             static_cast<unsigned long long>(off_arm.fastcall_crossings),
             static_cast<unsigned long long>(on_arm.fastcall_crossings));
  bench::Row("%-30s %14llu %14llu\n", "accepts batched",
             static_cast<unsigned long long>(off_arm.accepts_batched),
             static_cast<unsigned long long>(on_arm.accepts_batched));

  // Verdict: phase split intact; fastcall strictly cheaper per control op; a batch
  // drain is one crossing; the policy returns capacity without costing the hot flows
  // their bypass latency (25% headroom absorbs scheduling noise between the arms).
  const bool phase_split_ok =
      setup_syscalls > 0 && data_syscalls == 0 && steady.done();
  const bool fastcall_cheaper =
      arms[2].connect_cpu_per_op < arms[0].connect_cpu_per_op &&
      arms[2].drain_cpu < arms[0].drain_cpu &&
      arms[0].drain_syscalls == static_cast<std::uint64_t>(kConns) &&
      arms[2].drain_fastcalls == static_cast<std::uint64_t>(kConns);
  const bool batch_is_one_crossing =
      arms[1].drain_syscalls == 1 && arms[3].drain_fastcalls == 1 &&
      arms[3].accepted == static_cast<std::uint64_t>(kConns) &&
      arms[3].drain_cpu < arms[2].drain_cpu;
  // Policy off keeps PR-2 semantics: no slot metering, no voluntary moves. Policy
  // on: every cold flow demoted once and returned its slot; only the two hot flows
  // still hold bypass capacity at the end of the run.
  const bool adaptive_releases_capacity =
      off_arm.demotions == 0 && off_arm.flow_slots_released == 0 &&
      on_arm.live_flow_slots == 2 && on_arm.flow_slots_released >= 4 &&
      on_arm.demotions >= 4;
  const bool hot_latency_kept =
      on_arm.hot_p50_ns <=
      off_arm.hot_p50_ns + off_arm.hot_p50_ns / 4;

  bench::Verdict(phase_split_ok && fastcall_cheaper && batch_is_one_crossing &&
                     adaptive_releases_capacity && hot_latency_kept,
                 "kernel syscalls appear ONLY in the control path; fastcall pricing "
                 "beats full crossings on every control op; AcceptBatch drains a "
                 "storm in one crossing; the path policy returns cold flows' bypass "
                 "slots while hot flows keep bypass latency");
  return bench::Finish();
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
