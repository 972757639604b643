// Recovery subsystem tests (PR 2): deadline-aware retry policy, circuit breaker,
// health monitor, replay log, session control frames — plus end-to-end failover:
// a recovery-enabled Catnip session survives permanent NIC death by migrating to
// the legacy-kernel path, replays the unacknowledged suffix exactly once, keeps
// Wait*/Blocking* bounded, and re-promotes to the fast path when a flapped link
// heals. Catfish gets the same retry layer for transient device errors.
//
// Everything is seeded and rides the virtual clock: reruns are bit-deterministic.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/apps/actors.h"
#include "src/common/byte_order.h"
#include "src/common/random.h"
#include "src/core/harness.h"
#include "src/core/recovery.h"
#include "src/sim/fault_injector.h"

namespace demi {
namespace {

constexpr std::uint16_t kEchoPort = 7;

// --- RetryPolicy ----------------------------------------------------------------

TEST(RetryPolicyTest, AttemptZeroFiresImmediately) {
  RetryPolicy policy;
  Rng rng(3);
  EXPECT_EQ(policy.BackoffBeforeAttempt(0, rng), 0);
  EXPECT_EQ(policy.BackoffBeforeAttempt(-1, rng), 0);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 100;
  policy.multiplier = 2.0;
  policy.max_backoff_ns = 1000;
  policy.jitter = 0.0;  // deterministic values for exact comparison
  Rng rng(3);
  EXPECT_EQ(policy.BackoffBeforeAttempt(1, rng), 100);
  EXPECT_EQ(policy.BackoffBeforeAttempt(2, rng), 200);
  EXPECT_EQ(policy.BackoffBeforeAttempt(3, rng), 400);
  EXPECT_EQ(policy.BackoffBeforeAttempt(4, rng), 800);
  EXPECT_EQ(policy.BackoffBeforeAttempt(5, rng), 1000);   // capped
  EXPECT_EQ(policy.BackoffBeforeAttempt(50, rng), 1000);  // stays capped
}

TEST(RetryPolicyTest, JitterIsBoundedAndSeedDeterministic) {
  RetryPolicy policy;
  policy.initial_backoff_ns = 1000;
  policy.max_backoff_ns = 1000000;
  policy.jitter = 0.2;
  Rng a(77);
  Rng b(77);
  for (int attempt = 1; attempt < 8; ++attempt) {
    Rng probe(77);
    RetryPolicy no_jitter = policy;
    no_jitter.jitter = 0.0;
    const TimeNs base = no_jitter.BackoffBeforeAttempt(attempt, probe);
    const TimeNs x = policy.BackoffBeforeAttempt(attempt, a);
    EXPECT_GE(x, static_cast<TimeNs>(0.8 * static_cast<double>(base)));
    EXPECT_LE(x, static_cast<TimeNs>(1.2 * static_cast<double>(base)) + 1);
    // Same seed, same draw index -> identical jittered schedule.
    EXPECT_EQ(x, policy.BackoffBeforeAttempt(attempt, b));
  }
}

// --- CircuitBreaker -------------------------------------------------------------

TEST(CircuitBreakerTest, TripsAtThresholdExactlyOnce) {
  CircuitBreaker breaker(2);
  EXPECT_FALSE(breaker.tripped());
  EXPECT_FALSE(breaker.RecordExhaustion());  // 1 of 2
  EXPECT_TRUE(breaker.RecordExhaustion());   // trips now
  EXPECT_TRUE(breaker.tripped());
  EXPECT_FALSE(breaker.RecordExhaustion());  // already tripped: not counted again
}

TEST(CircuitBreakerTest, SuccessClosesTheBreaker) {
  CircuitBreaker breaker(1);
  EXPECT_TRUE(breaker.RecordExhaustion());
  EXPECT_TRUE(breaker.tripped());
  breaker.RecordSuccess();
  EXPECT_FALSE(breaker.tripped());
  EXPECT_EQ(breaker.consecutive_exhaustions(), 0);
  EXPECT_TRUE(breaker.RecordExhaustion());  // trips again from a clean slate
}

// --- HealthMonitor --------------------------------------------------------------

TEST(HealthMonitorTest, TracksHealthyDegradedDead) {
  HealthMonitor mon;
  EXPECT_EQ(mon.HealthyFor(50), 0);  // nothing observed yet
  mon.Observe(/*link_up=*/true, /*failed=*/false, 100);
  EXPECT_EQ(mon.health(), DeviceHealth::kHealthy);
  EXPECT_EQ(mon.HealthyFor(150), 50);
  EXPECT_TRUE(mon.AsStatus().ok());

  mon.Observe(/*link_up=*/false, /*failed=*/false, 200);
  EXPECT_EQ(mon.health(), DeviceHealth::kDegraded);
  EXPECT_EQ(mon.HealthyFor(250), 0);
  EXPECT_EQ(mon.AsStatus().code(), ErrorCode::kDegraded);

  // Healthy again: the continuous-healthy clock restarts at the transition.
  mon.Observe(/*link_up=*/true, /*failed=*/false, 300);
  EXPECT_EQ(mon.health(), DeviceHealth::kHealthy);
  EXPECT_EQ(mon.HealthyFor(450), 150);

  // Device death is permanent, regardless of later link state.
  mon.Observe(/*link_up=*/true, /*failed=*/true, 500);
  EXPECT_EQ(mon.health(), DeviceHealth::kDead);
  mon.Observe(/*link_up=*/true, /*failed=*/false, 600);
  EXPECT_EQ(mon.health(), DeviceHealth::kDead);
  EXPECT_EQ(mon.AsStatus().code(), ErrorCode::kDeviceFailed);
  EXPECT_EQ(mon.HealthyFor(700), 0);
}

// --- ReplayLog ------------------------------------------------------------------

TEST(ReplayLogTest, AppendsUntilFullAndEvictsBySeq) {
  ReplayLog log(3);
  EXPECT_TRUE(log.empty());
  log.Append(1, SgArray::FromString("a"));
  log.Append(2, SgArray::FromString("b"));
  log.Append(3, SgArray::FromString("c"));
  EXPECT_TRUE(log.full());
  log.EvictThroughSeq(2);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries().front().seq, 3u);
  log.EvictThroughSeq(100);
  EXPECT_TRUE(log.empty());
}

TEST(ReplayLogTest, EvictAckedDropsOnlyWrittenPrefix) {
  ReplayLog log(8);
  log.Append(1, SgArray::FromString("a"));
  log.Append(2, SgArray::FromString("b"));
  log.Append(3, SgArray::FromString("c"));
  ReplayLog::Entry* first = log.NextUnwritten();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->seq, 1u);
  first->written = true;
  first->end_offset = 10;
  // Entry 2 is unwritten: acked offset past entry 1 drops exactly entry 1.
  log.EvictAcked(50);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.entries().front().seq, 2u);
  EXPECT_EQ(log.NextUnwritten()->seq, 2u);
}

TEST(ReplayLogTest, MarkAllUnwrittenResetsForReplay) {
  ReplayLog log(8);
  log.Append(5, SgArray::FromString("x"));
  log.Append(6, SgArray::FromString("y"));
  for (ReplayLog::Entry& e : log.entries()) {
    e.written = true;
    e.end_offset = 99;
  }
  EXPECT_EQ(log.NextUnwritten(), nullptr);
  log.MarkAllUnwritten();
  ASSERT_NE(log.NextUnwritten(), nullptr);
  EXPECT_EQ(log.NextUnwritten()->seq, 5u);
  EXPECT_EQ(log.entries().front().end_offset, 0u);
  // Nothing written: transport acks evict nothing.
  log.EvictAcked(1000);
  EXPECT_EQ(log.size(), 2u);
}

// --- session control frames -----------------------------------------------------

TEST(HelloFrameTest, EncodeParseRoundTrip) {
  for (const bool is_ack : {false, true}) {
    HelloFrame hello;
    hello.is_ack = is_ack;
    hello.session_id = 0x1234567890abcdefull;
    hello.last_rx_seq = 42;
    auto parsed = ParseHello(SgArray(EncodeHello(hello)));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->is_ack, is_ack);
    EXPECT_EQ(parsed->session_id, hello.session_id);
    EXPECT_EQ(parsed->last_rx_seq, 42u);
  }
}

TEST(HelloFrameTest, PingRoundTripsAsItsOwnKind) {
  HelloFrame ping;
  ping.is_ping = true;
  ping.session_id = 9;
  ping.last_rx_seq = 3;
  auto parsed = ParseHello(SgArray(EncodeHello(ping)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->is_ping);
  EXPECT_FALSE(parsed->is_ack);
  EXPECT_EQ(parsed->session_id, 9u);
  EXPECT_EQ(parsed->last_rx_seq, 3u);
}

TEST(HelloFrameTest, RejectsNonControlBodies) {
  // Same length as a HELLO but wrong leading sequence/magic.
  EXPECT_FALSE(ParseHello(SgArray::FromString(std::string(32, 'a'))).has_value());
  EXPECT_FALSE(ParseHello(SgArray::FromString("short")).has_value());
}

TEST(SeqHeaderTest, ReadsAndStripsThePrefix) {
  Buffer hdr = Buffer::Allocate(kRecoverySeqHeader);
  ByteWriter w(hdr.mutable_span());
  w.U64(777);
  SgArray body(std::move(hdr));
  body.Append(Buffer::CopyOf(std::string_view("payload")));

  std::uint64_t seq = 0;
  ASSERT_TRUE(ReadSeqHeader(body, &seq));
  EXPECT_EQ(seq, 777u);
  EXPECT_EQ(StripBytes(body, kRecoverySeqHeader).ToString(), "payload");
  EXPECT_EQ(StripBytes(body, 0).ToString(), body.ToString());

  EXPECT_FALSE(ReadSeqHeader(SgArray::FromString("1234567"), &seq));  // 7 bytes: runt
}

// --- fault injector: auto-recovering variants -----------------------------------

TEST(TransientFaultTest, QpErrorFiresAndRestoresOnSchedule) {
  Simulation sim;
  FaultInjector faults(&sim, 9);
  std::vector<FaultEvent> events;
  const FaultDeviceId dev =
      faults.Register("rnic", [&](const FaultEvent& e) { events.push_back(e); });
  faults.ScheduleTransientQpError(dev, 100 * kMicrosecond, 50 * kMicrosecond);
  sim.RunFor(1 * kMillisecond);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, FaultKind::kQpError);
  EXPECT_EQ(events[0].at, 100 * kMicrosecond);
  EXPECT_EQ(events[1].kind, FaultKind::kQpRestored);
  EXPECT_EQ(events[1].at, 150 * kMicrosecond);
}

TEST(TransientFaultTest, RegExhaustionRestoresPullSideState) {
  Simulation sim;
  FaultInjector faults(&sim, 9);
  std::vector<FaultKind> kinds;
  const FaultDeviceId dev =
      faults.Register("rnic", [&](const FaultEvent& e) { kinds.push_back(e.kind); });
  EXPECT_FALSE(faults.reg_exhausted(dev));
  faults.ScheduleTransientRegExhaustion(dev, 10 * kMicrosecond, 20 * kMicrosecond);
  ASSERT_TRUE(sim.RunUntil([&] { return faults.reg_exhausted(dev); }, 1 * kMillisecond));
  ASSERT_TRUE(sim.RunUntil([&] { return !faults.reg_exhausted(dev); }, 1 * kMillisecond));
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], FaultKind::kRegExhausted);
  EXPECT_EQ(kinds[1], FaultKind::kRegRestored);
}

// --- Catnip failover: end to end ------------------------------------------------

// Two hosts with dedicated kernel NICs; recovery-enabled Catnip on both sides. The
// client's legacy fallback targets the server's kernel-stack listener.
struct RecoveryEchoRig {
  RecoveryEchoRig(std::uint64_t fabric_seed, const RecoveryConfig& base,
                  TcpConfig tcp = TcpConfig{}) {
    FabricConfig fabric;
    fabric.seed = fabric_seed;
    h = std::make_unique<TestHarness>(CostModel{}, fabric);
    HostOptions sopts;
    sopts.with_kernel_nic = true;
    sopts.tcp = tcp;
    server_host = &h->AddHost("server", "10.0.0.1", sopts);
    HostOptions copts = sopts;
    copts.charges_clock = false;
    client_host = &h->AddHost("client", "10.0.0.2", copts);
    server_libos = &h->Catnip(*server_host, base);
    RecoveryConfig client_cfg = base;
    client_cfg.fallback_remote = Endpoint{server_host->kernel_ip, kEchoPort};
    client_cfg.has_fallback_remote = true;
    client_libos = &h->Catnip(*client_host, client_cfg);
  }

  std::unique_ptr<TestHarness> h;
  TestHarness::Host* server_host = nullptr;
  TestHarness::Host* client_host = nullptr;
  CatnipLibOS* server_libos = nullptr;
  CatnipLibOS* client_libos = nullptr;
};

TEST(FailoverTest, EchoCompletesAcrossClientNicDeath) {
  constexpr std::uint64_t kTarget = 200;
  RecoveryEchoRig rig(21, RecoveryConfig{});
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  DemiClient client(rig.client_libos, Endpoint{rig.server_host->ip, kEchoPort}, kTarget,
                    EchoRequests(rig.client_libos, 64), EchoReplyOk(64));
  rig.h->faults().ScheduleDeviceFailure(rig.client_host->nic->fault_device(),
                                        500 * kMicrosecond);

  ASSERT_TRUE(rig.h->RunUntil([&] { return client.done() || client.failed(); },
                              60 * kSecond));
  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(client.completed(), kTarget);
  auto& counters = rig.h->sim().counters();
  EXPECT_GE(counters.Get(Counter::kFailovers), 1u);
  EXPECT_EQ(counters.Get(Counter::kRetryGiveups), 0u);
  // No hung qtokens: the client tore down cleanly after the failover.
  EXPECT_EQ(rig.client_libos->pending_ops(), 0u);
}

TEST(FailoverTest, EchoCompletesAcrossServerNicDeath) {
  constexpr std::uint64_t kTarget = 200;
  RecoveryConfig cfg;
  cfg.retry.attempt_timeout_ns = 1 * kMillisecond;
  cfg.retry.max_attempts = 3;
  TcpConfig tcp;
  tcp.max_retries = 4;  // the dead server is detected in ~tens of virtual ms
  RecoveryEchoRig rig(22, cfg, tcp);
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  DemiClient client(rig.client_libos, Endpoint{rig.server_host->ip, kEchoPort}, kTarget,
                    EchoRequests(rig.client_libos, 64), EchoReplyOk(64));
  rig.h->faults().ScheduleDeviceFailure(rig.server_host->nic->fault_device(),
                                        500 * kMicrosecond);

  ASSERT_TRUE(rig.h->RunUntil([&] { return client.done() || client.failed(); },
                              60 * kSecond));
  EXPECT_TRUE(client.done());
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(client.completed(), kTarget);
  EXPECT_GE(rig.h->sim().counters().Get(Counter::kFailovers), 1u);
  EXPECT_EQ(rig.client_libos->pending_ops(), 0u);
}

TEST(FailoverTest, OpsInFlightDuringWaitAnyResolveAfterFailover) {
  RecoveryEchoRig rig(23, RecoveryConfig{});
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  LibOS& cl = *rig.client_libos;

  const QDesc qd = *cl.Socket();
  const QToken connect_token = *cl.ConnectAsync(qd, Endpoint{rig.server_host->ip, kEchoPort});
  auto connected = cl.Wait(connect_token, 1 * kSecond);
  ASSERT_TRUE(connected.ok() && connected->status.ok()) << connected.status();

  // One clean round trip, then kill the bypass NIC and issue ops mid-outage.
  ASSERT_TRUE(cl.Wait(*cl.Push(qd, SgArray::FromString("warm")), 1 * kSecond)->status.ok());
  auto warm = cl.Wait(*cl.Pop(qd), 1 * kSecond);
  ASSERT_TRUE(warm.ok() && warm->status.ok());
  EXPECT_EQ(warm->sga.ToString(), "warm");

  rig.h->faults().ScheduleDeviceFailure(rig.client_host->nic->fault_device(),
                                        rig.h->sim().now() + 5 * kMicrosecond);
  rig.h->sim().RunFor(20 * kMicrosecond);  // the outage is now in progress

  const QToken push_token = *cl.Push(qd, SgArray::FromString("across-the-failover"));
  const QToken pop_token = *cl.Pop(qd);
  const QToken tokens[] = {push_token, pop_token};
  auto any = cl.WaitAny(tokens, 10 * kSecond);
  ASSERT_TRUE(any.ok()) << any.status();
  EXPECT_EQ(any->first, 0u);  // the push resolves first (at replay-log admission)
  EXPECT_TRUE(any->second.status.ok()) << any->second.status;

  auto echoed = cl.Wait(pop_token, 10 * kSecond);
  ASSERT_TRUE(echoed.ok() && echoed->status.ok()) << echoed.status();
  EXPECT_EQ(echoed->sga.ToString(), "across-the-failover");
  EXPECT_GE(rig.h->sim().counters().Get(Counter::kFailovers), 1u);

  ASSERT_TRUE(cl.Close(qd).ok());
  EXPECT_EQ(cl.pending_ops(), 0u);
}

TEST(FailoverTest, ReplayDeliversEveryElementExactlyOnceInOrder) {
  constexpr int kMessages = 60;
  RecoveryEchoRig rig(24, RecoveryConfig{});
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  LibOS& cl = *rig.client_libos;

  const QDesc qd = *cl.Socket();
  auto connected =
      cl.Wait(*cl.ConnectAsync(qd, Endpoint{rig.server_host->ip, kEchoPort}), 1 * kSecond);
  ASSERT_TRUE(connected.ok() && connected->status.ok());

  auto message = [](int i) {
    return "rec-" + std::to_string(i) + "-" + std::string(500, 'p');
  };

  // Kill the NIC while the burst is on the wire: some frames will be acknowledged,
  // some lost in flight, some not yet sent — the replay log covers the difference.
  rig.h->faults().ScheduleDeviceFailure(rig.client_host->nic->fault_device(),
                                        rig.h->sim().now() + 15 * kMicrosecond);

  std::vector<QToken> pushes;
  for (int i = 0; i < kMessages; ++i) {
    pushes.push_back(*cl.Push(qd, SgArray::FromString(message(i))));
  }
  auto push_results = cl.WaitAll(pushes, 10 * kSecond);
  ASSERT_TRUE(push_results.ok()) << push_results.status();
  for (const QResult& r : *push_results) {
    EXPECT_TRUE(r.status.ok()) << r.status;
  }

  // Exactly-once, in-order: a duplicate would shift the sequence, a drop would hang
  // the pop (bounded by the Wait deadline).
  for (int i = 0; i < kMessages; ++i) {
    auto r = cl.Wait(*cl.Pop(qd), 10 * kSecond);
    ASSERT_TRUE(r.ok() && r->status.ok()) << "message " << i << ": " << r.status();
    EXPECT_EQ(r->sga.ToString(), message(i)) << "message " << i;
  }
  EXPECT_GE(rig.h->sim().counters().Get(Counter::kFailovers), 1u);

  ASSERT_TRUE(cl.Close(qd).ok());
  EXPECT_EQ(cl.pending_ops(), 0u);
}

TEST(FailoverTest, BlockingOpsStayBoundedDuringAnOutage) {
  RecoveryEchoRig rig(25, RecoveryConfig{});
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  LibOS& cl = *rig.client_libos;

  const QDesc qd = *cl.Socket();
  auto connected =
      cl.Wait(*cl.ConnectAsync(qd, Endpoint{rig.server_host->ip, kEchoPort}), 1 * kSecond);
  ASSERT_TRUE(connected.ok() && connected->status.ok());
  ASSERT_TRUE(cl.BlockingPush(qd, SgArray::FromString("warm"), 1 * kSecond)->status.ok());
  ASSERT_TRUE(cl.BlockingPop(qd, 1 * kSecond)->status.ok());

  rig.h->faults().ScheduleDeviceFailure(rig.client_host->nic->fault_device(),
                                        rig.h->sim().now() + 1 * kMicrosecond);
  rig.h->sim().RunFor(10 * kMicrosecond);

  // Mid-outage (the default policy needs several virtual ms to fail over), a 1 ms
  // deadline must produce kTimedOut — never a hung qtoken.
  const TimeNs before = rig.h->sim().now();
  auto timed_out = cl.BlockingPop(qd, 1 * kMillisecond);
  EXPECT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.code(), ErrorCode::kTimedOut);
  EXPECT_LE(rig.h->sim().now() - before, 2 * kMillisecond);
  EXPECT_EQ(cl.pending_ops(), 0u);  // the timed-out pop was cancelled, not leaked

  // With a deadline generous enough to cover the failover, blocking ops succeed.
  auto pushed = cl.BlockingPush(qd, SgArray::FromString("after"), 500 * kMillisecond);
  ASSERT_TRUE(pushed.ok()) << pushed.status();
  EXPECT_TRUE(pushed->status.ok()) << pushed->status;
  auto popped = cl.BlockingPop(qd, 500 * kMillisecond);
  ASSERT_TRUE(popped.ok()) << popped.status();
  EXPECT_TRUE(popped->status.ok()) << popped->status;
  EXPECT_EQ(popped->sga.ToString(), "after");
  EXPECT_GE(rig.h->sim().counters().Get(Counter::kFailovers), 1u);

  ASSERT_TRUE(cl.Close(qd).ok());
  EXPECT_EQ(cl.pending_ops(), 0u);
}

TEST(FailoverTest, LinkFlapReconnectsOnTheFastPathWithoutFailingOver) {
  constexpr std::uint64_t kTarget = 300;
  RecoveryConfig cfg;
  cfg.retry.attempt_timeout_ns = 1 * kMillisecond;
  TcpConfig tcp;
  tcp.init_rto_ns = 200 * kMicrosecond;
  tcp.min_rto_ns = 100 * kMicrosecond;
  tcp.max_retries = 2;  // the flap kills the connection while the device is healthy
  RecoveryEchoRig rig(26, cfg, tcp);
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  DemiClient client(rig.client_libos, Endpoint{rig.server_host->ip, kEchoPort}, kTarget,
                    EchoRequests(rig.client_libos, 64), EchoReplyOk(64));
  rig.h->faults().ScheduleLinkFlap(rig.client_host->nic->fault_device(),
                                   300 * kMicrosecond, 2 * kMillisecond);

  ASSERT_TRUE(rig.h->RunUntil([&] { return client.done() || client.failed(); },
                              60 * kSecond));
  EXPECT_TRUE(client.done());
  EXPECT_EQ(client.completed(), kTarget);
  auto& counters = rig.h->sim().counters();
  // The session reconnected (retries fired) but never left the bypass path.
  EXPECT_GE(counters.Get(Counter::kRetriesAttempted), 1u);
  EXPECT_EQ(counters.Get(Counter::kFailovers), 0u);
  EXPECT_EQ(counters.Get(Counter::kFastPathRepromotions), 0u);
  EXPECT_EQ(rig.client_libos->pending_ops(), 0u);
}

TEST(FailoverTest, RepromotesToFastPathAfterTheLinkHeals) {
  constexpr std::uint64_t kTarget = 2000;
  RecoveryConfig cfg;
  cfg.retry.attempt_timeout_ns = 500 * kMicrosecond;
  cfg.retry.max_attempts = 2;
  cfg.retry.initial_backoff_ns = 100 * kMicrosecond;
  cfg.breaker_threshold = 1;
  cfg.repromote_after_ns = 2 * kMillisecond;
  TcpConfig tcp;
  tcp.init_rto_ns = 200 * kMicrosecond;
  tcp.min_rto_ns = 100 * kMicrosecond;
  tcp.max_retries = 2;
  RecoveryEchoRig rig(27, cfg, tcp);
  DemiServer server(rig.server_libos, kEchoPort, EchoReply);
  DemiClient client(rig.client_libos, Endpoint{rig.server_host->ip, kEchoPort}, kTarget,
                    EchoRequests(rig.client_libos, 64), EchoReplyOk(64));
  // Long flap: fast-path attempts exhaust (tripping the breaker), the session fails
  // over, the link heals, and after 2 ms of continuous health it migrates back.
  rig.h->faults().ScheduleLinkFlap(rig.client_host->nic->fault_device(),
                                   200 * kMicrosecond, 5 * kMillisecond);

  ASSERT_TRUE(rig.h->RunUntil([&] { return client.done() || client.failed(); },
                              60 * kSecond));
  EXPECT_TRUE(client.done());
  EXPECT_EQ(client.completed(), kTarget);
  auto& counters = rig.h->sim().counters();
  EXPECT_GE(counters.Get(Counter::kFailovers), 1u);
  EXPECT_GE(counters.Get(Counter::kBreakerTrips), 1u);
  EXPECT_GE(counters.Get(Counter::kFastPathRepromotions), 1u);
  EXPECT_EQ(rig.client_libos->pending_ops(), 0u);
}

TEST(FailoverTest, FailoverRunsAreBitDeterministic) {
  using Snapshot = std::tuple<TimeNs, std::uint64_t, std::uint64_t, std::uint64_t,
                              std::uint64_t, std::uint64_t>;
  auto run = [] {
    constexpr std::uint64_t kTarget = 150;
    RecoveryEchoRig rig(31, RecoveryConfig{});
    DemiServer server(rig.server_libos, kEchoPort, EchoReply);
    DemiClient client(rig.client_libos, Endpoint{rig.server_host->ip, kEchoPort}, kTarget,
                      EchoRequests(rig.client_libos, 64), EchoReplyOk(64));
    rig.h->faults().ScheduleDeviceFailure(rig.client_host->nic->fault_device(),
                                          400 * kMicrosecond);
    EXPECT_TRUE(rig.h->RunUntil([&] { return client.done() || client.failed(); },
                                60 * kSecond));
    EXPECT_TRUE(client.done());
    auto& c = rig.h->sim().counters();
    return Snapshot{rig.h->sim().now(),
                    client.completed(),
                    c.Get(Counter::kFailovers),
                    c.Get(Counter::kRetriesAttempted),
                    c.Get(Counter::kBreakerTrips),
                    c.Get(Counter::kRetryGiveups)};
  };
  EXPECT_EQ(run(), run());
}

// --- Catfish: transient device-error retry --------------------------------------

struct CatfishRecoveryRig {
  explicit CatfishRecoveryRig(CatfishConfig cfg) {
    HostOptions opts;
    opts.with_nic = false;
    opts.with_kernel = false;
    opts.with_block_device = true;
    host = &h.AddHost("storage", "10.0.0.1", opts);
    libos = &h.Catfish(*host, std::move(cfg));
  }
  TestHarness h;
  TestHarness::Host* host;
  CatfishLibOS* libos;
};

TEST(CatfishRetryTest, TransientMediaErrorAndTimeoutAreRetried) {
  CatfishConfig cfg;
  cfg.recovery.enabled = true;
  CatfishRecoveryRig rig(cfg);
  const FaultDeviceId dev = rig.host->bdev->fault_device();
  const QDesc qd = *rig.libos->Creat("/log/flaky");

  rig.h.faults().ScheduleOpFault(dev, FaultKind::kMediaError, 0);
  auto first = rig.libos->BlockingPush(qd, SgArray::FromString("one"), 1 * kSecond);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->status.ok()) << first->status;

  rig.h.faults().ScheduleOpFault(dev, FaultKind::kOpTimeout, rig.h.sim().now());
  auto second = rig.libos->BlockingPush(qd, SgArray::FromString("two"), 1 * kSecond);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->status.ok()) << second->status;

  auto& counters = rig.h.sim().counters();
  EXPECT_GE(counters.Get(Counter::kRetriesAttempted), 2u);
  EXPECT_EQ(counters.Get(Counter::kRetryGiveups), 0u);
  // The retried writes are intact on the device.
  EXPECT_EQ(rig.libos->BlockingPop(qd)->sga.ToString(), "one");
  EXPECT_EQ(rig.libos->BlockingPop(qd)->sga.ToString(), "two");
}

TEST(CatfishRetryTest, PersistentErrorsExhaustIntoTypedGiveUp) {
  CatfishConfig cfg;
  cfg.recovery.enabled = true;
  cfg.recovery.retry.max_attempts = 3;
  CatfishRecoveryRig rig(cfg);
  const FaultDeviceId dev = rig.host->bdev->fault_device();
  const QDesc qd = *rig.libos->Creat("/log/dead-media");

  rig.h.faults().SetOpFaultRate(dev, FaultKind::kMediaError, 1.0);
  auto r = rig.libos->BlockingPush(qd, SgArray::FromString("doomed"), 1 * kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kRetryExhausted) << r->status;
  EXPECT_GE(rig.h.sim().counters().Get(Counter::kRetryGiveups), 1u);

  // Once the media recovers, the queue is usable again.
  rig.h.faults().SetOpFaultRate(dev, FaultKind::kMediaError, 0.0);
  auto ok = rig.libos->BlockingPush(qd, SgArray::FromString("healed"), 1 * kSecond);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->status.ok()) << ok->status;
}

TEST(CatfishRetryTest, DisabledRecoverySurfacesTheRawError) {
  CatfishConfig cfg;  // recovery.enabled defaults to false
  CatfishRecoveryRig rig(cfg);
  const FaultDeviceId dev = rig.host->bdev->fault_device();
  const QDesc qd = *rig.libos->Creat("/log/raw");

  rig.h.faults().SetOpFaultRate(dev, FaultKind::kMediaError, 1.0);
  auto r = rig.libos->BlockingPush(qd, SgArray::FromString("x"), 1 * kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status.code(), ErrorCode::kMediaError) << r->status;
  EXPECT_EQ(rig.h.sim().counters().Get(Counter::kRetriesAttempted), 0u);
}

}  // namespace
}  // namespace demi
