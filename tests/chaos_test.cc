// Chaos suite (§4.4, §4.5): full echo and KV workloads under randomized, seeded fault
// schedules. Two invariants, checked for every seed:
//
//   1. No request is silently lost: the client either completes its full target or
//      observes an explicit failure — it never terminates early "successfully" and
//      never hangs past the virtual-time budget.
//   2. Determinism: the same seed produces bit-identical runs (final virtual time,
//      completion counts, and every fault counter), because faults are drawn from a
//      dedicated Rng and scheduled on the same virtual clock as the workload.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/apps/actors.h"
#include "src/common/random.h"
#include "src/core/harness.h"
#include "src/load/open_loop_runner.h"
#include "src/sim/fault_injector.h"

namespace demi {
namespace {

// Everything observable about a chaos run; compared across runs for determinism.
using Outcome = std::tuple<TimeNs,          // final virtual time
                           bool,            // client.done()
                           bool,            // client.failed()
                           std::uint64_t,   // requests completed
                           std::uint64_t,   // faults injected
                           std::uint64_t,   // link flaps
                           std::uint64_t,   // ops failed
                           std::uint64_t>;  // packets dropped

// Draws a randomized schedule of transient faults — short link flaps on either NIC
// and healing partitions — from the given seed. The undisturbed workloads finish in
// ~2 virtual milliseconds, so every fault is packed into the first 1.5 ms to land
// mid-run; the RTO stalls the faults cause then stretch the run past the schedule.
void ScheduleChaos(TestHarness& h, TestHarness::Host& a, TestHarness::Host& b,
                   std::uint64_t seed) {
  Rng rng(seed);
  const int flaps = 2 + static_cast<int>(rng.NextBelow(3));
  for (int i = 0; i < flaps; ++i) {
    const FaultDeviceId victim =
        rng.NextBool(0.5) ? a.nic->fault_device() : b.nic->fault_device();
    const TimeNs at = 100 * kMicrosecond + rng.NextBelow(1400 * kMicrosecond);
    const TimeNs down_for = 200 * kMicrosecond + rng.NextBelow(800 * kMicrosecond);
    h.faults().ScheduleLinkFlap(victim, at, down_for);
  }
  const int partitions = 1 + static_cast<int>(rng.NextBelow(2));
  for (int i = 0; i < partitions; ++i) {
    const TimeNs at = 100 * kMicrosecond + rng.NextBelow(1400 * kMicrosecond);
    const TimeNs window = 300 * kMicrosecond + rng.NextBelow(1200 * kMicrosecond);
    h.faults().SchedulePartition(a.nic->port(), b.nic->port(), at, window);
  }
}

Outcome ReadOutcome(TestHarness& h, bool done, bool failed, std::uint64_t completed) {
  auto& c = h.sim().counters();
  return {h.sim().now(),
          done,
          failed,
          completed,
          c.Get(Counter::kFaultsInjected),
          c.Get(Counter::kLinkFlaps),
          c.Get(Counter::kOpsFailed),
          c.Get(Counter::kPacketsDropped)};
}

Outcome RunEchoChaos(std::uint64_t seed) {
  constexpr std::uint64_t kTarget = 300;
  FabricConfig fabric;
  fabric.seed = seed;
  TestHarness h(CostModel{}, fabric);
  auto& sh = h.AddHost("server", "10.0.0.1");
  HostOptions copts;
  copts.charges_clock = false;
  auto& ch = h.AddHost("client", "10.0.0.2", copts);
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  DemiServer server(&sl, 7, EchoReply);
  DemiClient client(&cl, Endpoint{sh.ip, 7}, kTarget, EchoRequests(&cl, 64),
                    EchoReplyOk(64));
  ScheduleChaos(h, sh, ch, seed);

  const bool terminated =
      h.RunUntil([&] { return client.done() || client.failed(); }, 600 * kSecond);
  EXPECT_TRUE(terminated) << "seed " << seed << ": client hung under chaos";
  // No request silently lost: full completion or an explicit failure, nothing between.
  if (client.done()) {
    EXPECT_EQ(client.completed(), kTarget) << "seed " << seed;
  } else {
    EXPECT_TRUE(client.failed()) << "seed " << seed;
  }
  return ReadOutcome(h, client.done(), client.failed(), client.completed());
}

Outcome RunKvChaos(std::uint64_t seed) {
  constexpr std::uint64_t kTarget = 300;
  FabricConfig fabric;
  fabric.seed = seed;
  TestHarness h(CostModel{}, fabric);
  auto& sh = h.AddHost("server", "10.0.0.1");
  HostOptions copts;
  copts.charges_clock = false;
  auto& ch = h.AddHost("client", "10.0.0.2", copts);
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);

  KvWorkloadConfig wcfg;
  wcfg.num_keys = 100;
  wcfg.value_bytes = 512;
  KvWorkload workload(wcfg);
  KvEngine engine(sh.cpu.get());
  DemiServer server(&sl, 6379, KvReplies(&engine));
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    (void)engine.Execute(workload.LoadCommand(k));
  }
  DemiClient client(&cl, Endpoint{sh.ip, 6379}, kTarget, KvRequests(&cl, &workload),
                    AnyReply);
  ScheduleChaos(h, sh, ch, seed + 0x9e3779b97f4a7c15ULL);  // decorrelate from echo

  const bool terminated =
      h.RunUntil([&] { return client.done() || client.failed(); }, 600 * kSecond);
  EXPECT_TRUE(terminated) << "seed " << seed << ": client hung under chaos";
  if (client.done()) {
    EXPECT_EQ(client.completed(), kTarget) << "seed " << seed;
  } else {
    EXPECT_TRUE(client.failed()) << "seed " << seed;
  }
  return ReadOutcome(h, client.done(), client.failed(), client.completed());
}

constexpr std::uint64_t kSeeds[] = {1, 7, 42, 1234, 0xdeadbeef};

// --- PR 2: permanent NIC death, with and without the recovery layer -------------

constexpr std::uint16_t kEchoPort = 7;
constexpr std::uint16_t kKvPort = 6379;

// Everything observable about a NIC-death run, including the recovery counters.
using RecoveryOutcome = std::tuple<TimeNs,           // final virtual time
                                   bool,             // client.done()
                                   bool,             // client.failed()
                                   std::uint64_t,    // requests completed
                                   std::uint64_t,    // faults injected
                                   std::uint64_t,    // failovers
                                   std::uint64_t,    // retries attempted
                                   std::uint64_t>;   // retry giveups

// A seeded schedule that previously killed these workloads outright: one transient
// link flap for flavor, then a *permanent* device failure on one of the bypass NICs
// while the run is in full flight.
void ScheduleNicDeathChaos(TestHarness& h, TestHarness::Host& a, TestHarness::Host& b,
                           std::uint64_t seed) {
  Rng rng(seed ^ 0x4e1cdeadULL);
  const FaultDeviceId flap_victim =
      rng.NextBool(0.5) ? a.nic->fault_device() : b.nic->fault_device();
  h.faults().ScheduleLinkFlap(flap_victim, 100 * kMicrosecond + rng.NextBelow(500 * kMicrosecond),
                              100 * kMicrosecond + rng.NextBelow(200 * kMicrosecond));
  const FaultDeviceId death_victim =
      rng.NextBool(0.5) ? a.nic->fault_device() : b.nic->fault_device();
  const TimeNs death_at = 800 * kMicrosecond + rng.NextBelow(400 * kMicrosecond);
  h.faults().ScheduleDeviceFailure(death_victim, death_at);
}

RecoveryOutcome ReadRecoveryOutcome(TestHarness& h, bool done, bool failed,
                                    std::uint64_t completed) {
  auto& c = h.sim().counters();
  return {h.sim().now(),
          done,
          failed,
          completed,
          c.Get(Counter::kFaultsInjected),
          c.Get(Counter::kFailovers),
          c.Get(Counter::kRetriesAttempted),
          c.Get(Counter::kRetryGiveups)};
}

// Shared NIC-death topology: recovery runs give each host a dedicated kernel NIC
// (the legacy path must survive bypass death) and point the client's fallback at
// the server's kernel-stack listener; plain runs reproduce the PR 1 topology.
struct NicDeathRig {
  NicDeathRig(std::uint64_t seed, bool recovery, std::uint16_t port,
              std::size_t listen_backlog = 64,
              TimeNs retry_timeout = 1 * kMillisecond, int retry_attempts = 4) {
    FabricConfig fabric;
    fabric.seed = seed;
    h = std::make_unique<TestHarness>(CostModel{}, fabric);
    HostOptions sopts;
    sopts.with_kernel_nic = recovery;
    sopts.tcp.max_retries = 4;  // detect a dead peer within virtual tens of ms
    sopts.tcp.listen_backlog = listen_backlog;
    server = &h->AddHost("server", "10.0.0.1", sopts);
    HostOptions copts = sopts;
    copts.charges_clock = false;
    client = &h->AddHost("client", "10.0.0.2", copts);
    if (recovery) {
      RecoveryConfig cfg;
      cfg.retry.attempt_timeout_ns = retry_timeout;
      cfg.retry.max_attempts = retry_attempts;
      server_libos = &h->Catnip(*server, cfg);
      cfg.fallback_remote = Endpoint{server->kernel_ip, port};
      cfg.has_fallback_remote = true;
      client_libos = &h->Catnip(*client, cfg);
    } else {
      server_libos = &h->Catnip(*server);
      client_libos = &h->Catnip(*client);
    }
  }

  std::unique_ptr<TestHarness> h;
  TestHarness::Host* server = nullptr;
  TestHarness::Host* client = nullptr;
  CatnipLibOS* server_libos = nullptr;
  CatnipLibOS* client_libos = nullptr;
};

RecoveryOutcome RunEchoNicDeath(std::uint64_t seed, bool recovery) {
  constexpr std::uint64_t kTarget = 300;
  NicDeathRig rig(seed, recovery, kEchoPort);
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  DemiClient client(rig.client_libos, Endpoint{rig.server->ip, kEchoPort}, kTarget,
                    EchoRequests(rig.client_libos, 64), EchoReplyOk(64));
  ScheduleNicDeathChaos(*rig.h, *rig.server, *rig.client, seed);

  const bool terminated =
      rig.h->RunUntil([&] { return client.done() || client.failed(); }, 600 * kSecond);
  if (recovery) {
    // The headline invariant: zero client-visible errors on a schedule that kills
    // the bypass device for good — the session migrated to the legacy path.
    EXPECT_TRUE(terminated) << "seed " << seed << ": client hung under NIC death";
    EXPECT_TRUE(client.done()) << "seed " << seed;
    EXPECT_FALSE(client.failed()) << "seed " << seed;
    EXPECT_EQ(client.completed(), kTarget) << "seed " << seed;
    EXPECT_GE(rig.h->sim().counters().Get(Counter::kFailovers), 1u) << "seed " << seed;
    // WaitAll-after-chaos sweep: every qtoken resolved; nothing hung.
    EXPECT_EQ(rig.client_libos->pending_ops(), 0u) << "seed " << seed;
  } else {
    // Without recovery the same class of schedule is fatal: either an explicit
    // typed failure (the PR 1 contract) or — when the *peer's* NIC dies with
    // nothing of ours in flight — a silent hang, since plain TCP has no
    // keepalive. Either way the workload never completes.
    EXPECT_FALSE(client.done() && !client.failed()) << "seed " << seed;
    EXPECT_LT(client.completed(), kTarget) << "seed " << seed;
  }
  return ReadRecoveryOutcome(*rig.h, client.done(), client.failed(), client.completed());
}

RecoveryOutcome RunKvNicDeath(std::uint64_t seed, bool recovery) {
  constexpr std::uint64_t kTarget = 300;
  NicDeathRig rig(seed, recovery, kKvPort);
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 100;
  wcfg.value_bytes = 512;
  KvWorkload workload(wcfg);
  KvEngine engine(rig.server->cpu.get());
  DemiServer server(rig.server_libos, kKvPort, KvReplies(&engine));
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    (void)engine.Execute(workload.LoadCommand(k));
  }
  DemiClient client(rig.client_libos, Endpoint{rig.server->ip, kKvPort}, kTarget,
                    KvRequests(rig.client_libos, &workload), AnyReply);
  ScheduleNicDeathChaos(*rig.h, *rig.server, *rig.client,
                        seed + 0x9e3779b97f4a7c15ULL);  // decorrelate from echo

  const bool terminated =
      rig.h->RunUntil([&] { return client.done() || client.failed(); }, 600 * kSecond);
  if (recovery) {
    EXPECT_TRUE(terminated) << "seed " << seed << ": client hung under NIC death";
    EXPECT_TRUE(client.done()) << "seed " << seed;
    EXPECT_FALSE(client.failed()) << "seed " << seed;
    EXPECT_EQ(client.completed(), kTarget) << "seed " << seed;
    EXPECT_GE(rig.h->sim().counters().Get(Counter::kFailovers), 1u) << "seed " << seed;
    EXPECT_EQ(rig.client_libos->pending_ops(), 0u) << "seed " << seed;
  } else {
    // See RunEchoNicDeath: explicit failure or a keepalive-less hang, never success.
    EXPECT_FALSE(client.done() && !client.failed()) << "seed " << seed;
    EXPECT_LT(client.completed(), kTarget) << "seed " << seed;
  }
  return ReadRecoveryOutcome(*rig.h, client.done(), client.failed(), client.completed());
}

// --- PR 5: the batched data path under chaos ------------------------------------

// Large echo messages segment into multi-frame TX bursts, so the schedule's device
// failure lands *mid-burst*: after a doorbell but before the last descriptor's wire
// time, killing the tail of a burst inside the device. Recovery must still finish
// the full target, and the WaitAll sweep must find no qtoken left pending — staged
// frames dropped at failure time may not strand their completions.
RecoveryOutcome RunBurstEchoNicDeath(std::uint64_t seed) {
  constexpr std::uint64_t kTarget = 120;
  constexpr std::size_t kMsgBytes = 8192;  // ~6 MSS segments per push
  NicDeathRig rig(seed, /*recovery=*/true, kEchoPort);
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  DemiClient client(rig.client_libos, Endpoint{rig.server->ip, kEchoPort}, kTarget,
                    EchoRequests(rig.client_libos, kMsgBytes), EchoReplyOk(kMsgBytes));
  ScheduleNicDeathChaos(*rig.h, *rig.server, *rig.client,
                        seed ^ 0x6b75727374ULL);  // decorrelate from the other runs

  const bool terminated =
      rig.h->RunUntil([&] { return client.done() || client.failed(); }, 600 * kSecond);
  EXPECT_TRUE(terminated) << "seed " << seed << ": burst client hung under NIC death";
  EXPECT_TRUE(client.done()) << "seed " << seed;
  EXPECT_FALSE(client.failed()) << "seed " << seed;
  EXPECT_EQ(client.completed(), kTarget) << "seed " << seed;
  EXPECT_EQ(rig.client_libos->pending_ops(), 0u) << "seed " << seed;
  return ReadRecoveryOutcome(*rig.h, client.done(), client.failed(), client.completed());
}

TEST(ChaosTest, BurstEchoSurvivesMidBurstNicDeath) {
  for (const std::uint64_t seed : kSeeds) {
    const RecoveryOutcome first = RunBurstEchoNicDeath(seed);
    EXPECT_GE(std::get<4>(first), 1u) << "seed " << seed << ": chaos never fired";
    // Mid-burst tail drops are deterministic too: same seed, same outcome, bit for bit.
    EXPECT_EQ(first, RunBurstEchoNicDeath(seed)) << "seed " << seed;
  }
}

TEST(ChaosTest, EchoSurvivesSeededFaultSchedules) {
  for (const std::uint64_t seed : kSeeds) {
    const Outcome first = RunEchoChaos(seed);
    EXPECT_GE(std::get<4>(first), 3u) << "seed " << seed << ": chaos never fired";
    // Bit-determinism: a rerun with the same seed reproduces the outcome exactly.
    EXPECT_EQ(first, RunEchoChaos(seed)) << "seed " << seed;
  }
}

TEST(ChaosTest, KvSurvivesSeededFaultSchedules) {
  for (const std::uint64_t seed : kSeeds) {
    const Outcome first = RunKvChaos(seed);
    EXPECT_GE(std::get<4>(first), 3u) << "seed " << seed << ": chaos never fired";
    EXPECT_EQ(first, RunKvChaos(seed)) << "seed " << seed;
  }
}

TEST(ChaosTest, DifferentSeedsProduceDifferentFaultSequences) {
  EXPECT_NE(RunEchoChaos(1), RunEchoChaos(2));
}

TEST(ChaosTest, EchoSurvivesNicDeathWithRecovery) {
  for (const std::uint64_t seed : kSeeds) {
    const RecoveryOutcome first = RunEchoNicDeath(seed, /*recovery=*/true);
    EXPECT_GE(std::get<4>(first), 3u) << "seed " << seed << ": chaos never fired";
    EXPECT_EQ(first, RunEchoNicDeath(seed, /*recovery=*/true)) << "seed " << seed;
  }
}

TEST(ChaosTest, EchoFailsUnderNicDeathWithoutRecovery) {
  for (const std::uint64_t seed : kSeeds) {
    const RecoveryOutcome first = RunEchoNicDeath(seed, /*recovery=*/false);
    EXPECT_EQ(std::get<5>(first), 0u) << "seed " << seed << ": failover without recovery";
    // The failure itself is bit-deterministic: same seed, same final state.
    EXPECT_EQ(first, RunEchoNicDeath(seed, /*recovery=*/false)) << "seed " << seed;
  }
}

TEST(ChaosTest, KvSurvivesNicDeathWithRecovery) {
  for (const std::uint64_t seed : kSeeds) {
    const RecoveryOutcome first = RunKvNicDeath(seed, /*recovery=*/true);
    EXPECT_GE(std::get<4>(first), 3u) << "seed " << seed << ": chaos never fired";
    EXPECT_EQ(first, RunKvNicDeath(seed, /*recovery=*/true)) << "seed " << seed;
  }
}

TEST(ChaosTest, KvFailsUnderNicDeathWithoutRecovery) {
  for (const std::uint64_t seed : kSeeds) {
    const RecoveryOutcome first = RunKvNicDeath(seed, /*recovery=*/false);
    EXPECT_EQ(std::get<5>(first), 0u) << "seed " << seed << ": failover without recovery";
    EXPECT_EQ(first, RunKvNicDeath(seed, /*recovery=*/false)) << "seed " << seed;
  }
}

// --- PR 6: the open-loop harness under chaos ------------------------------------

// Kill one load-generator NIC mid-sweep at 10^5 connections. The 1/8 of the fleet
// behind it must die exactly once each (abort -> dead callback, no double deaths),
// the rest must keep completing, and request accounting must balance to the unit:
// every issued request either completed or is explicitly tallied as lost in flight
// with its connection — nothing silently dropped, nothing completed twice.
TEST(ChaosTest, OpenLoopFleetDrainsCleanlyWhenClientNicDiesMidSweep) {
  constexpr std::size_t kConnections = 100'000;
  OpenLoopConfig cfg;
  cfg.connections = kConnections;
  cfg.client_stacks = 8;
  cfg.server_ports = 64;
  cfg.seed = 42;
  OpenLoopRunner r(cfg);
  FaultInjector faults(&r.sim(), 42);
  const FaultDeviceId victim = r.fleet().client_nic(3).AttachFaultInjector(&faults);

  ASSERT_TRUE(r.fleet().Ramp());
  ASSERT_EQ(r.fleet().established_connections(), kConnections);

  // Device death lands inside the measurement window (warmup 2ms + 5ms).
  faults.ScheduleDeviceFailure(victim, r.sim().now() + 7 * kMillisecond);
  const SweepPoint pt =
      r.fleet().RunPoint(500'000, 2 * kMillisecond, 10 * kMillisecond);
  r.fleet().StopLoad();
  // Drain: everything issued on surviving connections completes; everything on
  // the dead stack has been tallied as lost.
  ASSERT_TRUE(r.sim().RunUntil(
      [&] {
        return r.fleet().completed_total() + r.fleet().lost_in_flight() >=
               r.fleet().issued_total();
      },
      r.sim().now() + 5 * kSecond));

  EXPECT_GT(pt.completed, 0u);
  // Exactly the dead stack's share of the fleet died, exactly once each.
  EXPECT_EQ(r.fleet().unexpected_deaths(), kConnections / 8);
  EXPECT_EQ(r.fleet().established_connections(), kConnections - kConnections / 8);
  // Conservation: issued == completed + lost, with no stray response bytes — the
  // failover drain neither lost nor duplicated a completion.
  EXPECT_EQ(r.fleet().completed_total() + r.fleet().lost_in_flight(),
            r.fleet().issued_total());
  EXPECT_EQ(r.fleet().stray_response_bytes(), 0u);
  EXPECT_GT(r.fleet().lost_in_flight(), 0u);  // the kill landed mid-flight
  // Tenant machinery is dormant outside tenant mode: a single-owner chaos run
  // must never trip a capability check or a doorbell throttle.
  EXPECT_EQ(r.sim().counters().Get(Counter::kCapabilityViolations), 0u);
  EXPECT_EQ(r.sim().counters().Get(Counter::kDoorbellsThrottled), 0u);
}

// A fleet of concurrent echo sessions on one recovery-enabled libOS, NIC death
// mid-run: the PR 2 failover path must drain every session without losing or
// duplicating a completion — each client finishes its exact target.
RecoveryOutcome RunEchoFleetNicDeath(std::uint64_t seed) {
  constexpr std::size_t kClients = 64;
  constexpr std::uint64_t kPerClient = 12;
  // A fleet shares one libOS: the failover storm stretches op latencies well past
  // the single-session case, so the retry budget scales up with it.
  NicDeathRig rig(seed, /*recovery=*/true, kEchoPort, /*listen_backlog=*/256,
                  /*retry_timeout=*/5 * kMillisecond, /*retry_attempts=*/8);
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  std::vector<std::unique_ptr<DemiClient>> fleet;
  fleet.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    fleet.push_back(std::make_unique<DemiClient>(
        rig.client_libos, Endpoint{rig.server->ip, kEchoPort}, kPerClient,
        EchoRequests(rig.client_libos, 64), EchoReplyOk(64)));
  }
  ScheduleNicDeathChaos(*rig.h, *rig.server, *rig.client, seed ^ 0xf1ee7ULL);

  auto all_terminated = [&] {
    for (const auto& c : fleet) {
      if (!c->done() && !c->failed()) {
        return false;
      }
    }
    return true;
  };
  const bool terminated = rig.h->RunUntil(all_terminated, 600 * kSecond);
  EXPECT_TRUE(terminated) << "seed " << seed << ": fleet hung under NIC death";

  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kClients; ++i) {
    EXPECT_TRUE(fleet[i]->done()) << "seed " << seed << " client " << i;
    EXPECT_FALSE(fleet[i]->failed()) << "seed " << seed << " client " << i;
    // Exactly the target: a lost completion shows as < target (hang/failure), a
    // duplicated one as > target.
    EXPECT_EQ(fleet[i]->completed(), kPerClient) << "seed " << seed << " client " << i;
    total += fleet[i]->completed();
  }
  EXPECT_EQ(total, kClients * kPerClient) << "seed " << seed;
  // Post-drain sweep: no qtoken left pending anywhere in the fleet, and no
  // tenant enforcement fired on this single-owner device.
  EXPECT_EQ(rig.client_libos->pending_ops(), 0u) << "seed " << seed;
  EXPECT_EQ(rig.h->sim().counters().Get(Counter::kCapabilityViolations), 0u)
      << "seed " << seed;
  EXPECT_EQ(rig.h->sim().counters().Get(Counter::kDoorbellsThrottled), 0u)
      << "seed " << seed;
  return ReadRecoveryOutcome(*rig.h, terminated, false, total);
}

TEST(ChaosTest, EchoFleetSurvivesNicDeathWithRecovery) {
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{42}}) {
    const RecoveryOutcome first = RunEchoFleetNicDeath(seed);
    EXPECT_GE(std::get<4>(first), 1u) << "seed " << seed << ": chaos never fired";
    // Fleet-wide drain is bit-deterministic too.
    EXPECT_EQ(first, RunEchoFleetNicDeath(seed)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace demi
