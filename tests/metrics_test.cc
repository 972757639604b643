// Observability-layer tests (ctest label: metrics): histogram quantile edges and
// window deltas, the bounded recovery trace ring, snapshot/delta/JSON export, per-op
// latency capture for Catnip (network) and Catfish (storage) — and the cost-model
// contract: recording charges ZERO simulated time, so a run with metrics enabled is
// bit-identical (same virtual timeline, same counters) to one with them disabled.

#include <gtest/gtest.h>

#include <string>

#include "src/apps/actors.h"
#include "src/core/harness.h"
#include "src/sim/fault_injector.h"
#include "src/sim/metrics.h"

namespace demi {
namespace {

constexpr std::uint16_t kEchoPort = 7;

// --- Histogram edges ------------------------------------------------------------

TEST(MetricsHistogramTest, EmptyHistogramQuantilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.P99(), 0u);
  EXPECT_EQ(h.P999(), 0u);
}

TEST(MetricsHistogramTest, SingleValueIsEveryQuantile) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.Quantile(0.0), 1000u);
  EXPECT_EQ(h.P50(), 1000u);
  EXPECT_EQ(h.P99(), 1000u);
  EXPECT_EQ(h.P999(), 1000u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
}

TEST(MetricsHistogramTest, LinearToLogBoundaryStaysExact) {
  // Values below 2 * kSubBuckets (128) land in width-1 buckets, so quantiles at the
  // linear/log seam (63, 64, 65) must come back exact, not rounded.
  Histogram h;
  for (const std::uint64_t v : {63u, 64u, 65u, 127u}) {
    h.Record(v);
  }
  EXPECT_EQ(h.Quantile(0.0), 63u);
  EXPECT_EQ(h.P50(), 64u);
  EXPECT_EQ(h.Quantile(1.0), 127u);
}

TEST(MetricsHistogramTest, DiffSinceSubtractsTheWindow) {
  Histogram h;
  h.Record(100);
  h.Record(50);
  const Histogram before = h;
  h.Record(200);
  h.Record(200);
  const Histogram window = h.DiffSince(before);
  EXPECT_EQ(window.count(), 2u);
  EXPECT_EQ(window.mean(), 200.0);
  // Diffing a histogram against itself is empty.
  const Histogram empty = h.DiffSince(h);
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.P99(), 0u);
}

// --- TraceRing ------------------------------------------------------------------

TEST(TraceRingTest, DropsOldestPastCapacityAndCountsDrops) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.Append(TraceEvent{i, TraceKind::kRetryAttempt, static_cast<std::uint64_t>(i), 0});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().at, 6);  // oldest retained
  EXPECT_EQ(events.back().at, 9);   // newest
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

// --- MetricsRegistry ------------------------------------------------------------

TEST(MetricsRegistryTest, DisabledRecordingIsANoOp) {
  MetricsRegistry reg;
  auto* handle = reg.OpLatencyHandle("catnip");
  reg.set_enabled(false);
  reg.RecordOpLatency(handle, OpKind::kPush, 100);
  reg.RecordStat(SimStat::kDispatchBatch, 5);
  reg.Trace(TraceKind::kFailover, 10);
  EXPECT_EQ((*handle)[0].count(), 0u);
  EXPECT_EQ(reg.sim_stat(SimStat::kDispatchBatch).count(), 0u);
  EXPECT_EQ(reg.trace().size(), 0u);
  reg.set_enabled(true);
  reg.RecordOpLatency(handle, OpKind::kPush, -5);  // negative latency is dropped
  EXPECT_EQ((*handle)[0].count(), 0u);
}

TEST(MetricsRegistryTest, OpLatencyHandleIsStableAcrossInserts) {
  MetricsRegistry reg;
  auto* catnip = reg.OpLatencyHandle("catnip");
  for (int i = 0; i < 64; ++i) {
    reg.OpLatencyHandle("libos-" + std::to_string(i));
  }
  EXPECT_EQ(reg.OpLatencyHandle("catnip"), catnip);  // map nodes do not move
  reg.RecordOpLatency(catnip, OpKind::kPop, 42);
  const Histogram* pop = reg.op_latency("catnip", OpKind::kPop);
  ASSERT_NE(pop, nullptr);
  EXPECT_EQ(pop->count(), 1u);
  EXPECT_EQ(reg.op_latency("nope", OpKind::kPop), nullptr);
}

TEST(MetricsSnapshotTest, DeltaSubtractsCountersHistogramsAndTrace) {
  MetricsRegistry reg;
  Counters counters;
  auto* handle = reg.OpLatencyHandle("catnip");
  reg.RecordOpLatency(handle, OpKind::kPush, 100);
  reg.RecordStat(SimStat::kDispatchBatch, 1);
  reg.Trace(TraceKind::kRetryAttempt, 50);
  counters.Add(Counter::kWakeups, 3);
  const MetricsSnapshot snap1 = reg.Snapshot(counters, 100);

  reg.RecordOpLatency(handle, OpKind::kPush, 200);
  reg.RecordOpLatency(handle, OpKind::kPop, 70);
  reg.RecordStat(SimStat::kDispatchBatch, 2);
  reg.Trace(TraceKind::kFailover, 150);
  counters.Add(Counter::kWakeups, 2);
  const MetricsSnapshot snap2 = reg.Snapshot(counters, 200);

  const MetricsSnapshot delta = MetricsRegistry::Delta(snap2, snap1);
  EXPECT_EQ(delta.taken_at, 200);
  EXPECT_EQ(delta.counters[static_cast<std::size_t>(Counter::kWakeups)], 2u);
  const auto& by_op = delta.op_latency.at("catnip");
  EXPECT_EQ(by_op[static_cast<std::size_t>(OpKind::kPush)].count(), 1u);
  EXPECT_EQ(by_op[static_cast<std::size_t>(OpKind::kPush)].mean(), 200.0);
  EXPECT_EQ(by_op[static_cast<std::size_t>(OpKind::kPop)].count(), 1u);
  EXPECT_EQ(delta.sim_stats[static_cast<std::size_t>(SimStat::kDispatchBatch)].count(), 1u);
  ASSERT_EQ(delta.trace.size(), 1u);  // only events after snap1.taken_at
  EXPECT_EQ(delta.trace[0].kind, TraceKind::kFailover);
}

TEST(MetricsSnapshotTest, ToJsonCarriesQuantilesAndOmitsEmpty) {
  MetricsRegistry reg;
  Counters counters;
  counters.Add(Counter::kWakeups, 7);
  auto* handle = reg.OpLatencyHandle("catnip");
  reg.OpLatencyHandle("idle-libos");  // never records; must not appear
  reg.RecordOpLatency(handle, OpKind::kPush, 1234);
  reg.Trace(TraceKind::kFailover, 99, /*a=*/5);
  const std::string json = reg.Snapshot(counters, 500).ToJson();
  EXPECT_NE(json.find("\"taken_at_ns\":500"), std::string::npos);
  EXPECT_NE(json.find("\"wakeups\":7"), std::string::npos);
  EXPECT_NE(json.find("\"catnip\":{\"push\":{\"n\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"event\":\"failover\""), std::string::npos);
  EXPECT_EQ(json.find("idle-libos"), std::string::npos);
  EXPECT_EQ(json.find("\"pop\""), std::string::npos);  // zero-count op omitted
}

// --- end to end: op-latency capture ---------------------------------------------

TEST(MetricsOpLatencyTest, CatnipEchoRecordsPushAndPopLatency) {
  TestHarness env;
  auto& sh = env.AddHost("server", "10.0.0.1", HostOptions{});
  HostOptions copts;
  copts.charges_clock = false;
  auto& ch = env.AddHost("client", "10.0.0.2", copts);
  DemiServer server(&env.Catnip(sh), kEchoPort, EchoReply);
  LibOS* cl = &env.Catnip(ch);
  DemiClient client(cl, Endpoint{sh.ip, kEchoPort}, 50, EchoRequests(cl, 64), EchoReplyOk(64));
  ASSERT_TRUE(env.RunUntil([&] { return client.done(); }, 60 * kSecond));

  const MetricsRegistry& m = env.sim().metrics();
  const Histogram* push = m.op_latency("catnip", OpKind::kPush);
  const Histogram* pop = m.op_latency("catnip", OpKind::kPop);
  ASSERT_NE(push, nullptr);
  ASSERT_NE(pop, nullptr);
  EXPECT_GE(push->count(), 100u);  // client + server, 50 round trips
  EXPECT_GE(pop->count(), 100u);
  EXPECT_GT(pop->P99(), 0u);  // a pop waits for the wire: latency is never zero
  // The simulator internals were profiled along the way.
  EXPECT_GT(m.sim_stat(SimStat::kReadyRingDepth).count(), 0u);
  EXPECT_GT(m.sim_stat(SimStat::kSchedHeapDepth).count(), 0u);
}

TEST(MetricsOpLatencyTest, CatfishLogRecordsPushAndPopLatency) {
  TestHarness env;
  HostOptions opts;
  opts.with_nic = false;
  opts.with_kernel = false;
  opts.with_block_device = true;
  auto& host = env.AddHost("storage", "10.0.0.1", opts);
  CatfishLibOS& libos = env.Catfish(host);
  const QDesc log = *libos.Creat("/wal/log");
  for (int i = 0; i < 10; ++i) {
    auto r = libos.BlockingPush(log, SgArray::FromString("record-payload"));
    ASSERT_TRUE(r.ok() && r->status.ok());
  }
  for (int i = 0; i < 10; ++i) {
    auto r = libos.BlockingPop(log);
    ASSERT_TRUE(r.ok() && r->status.ok());
  }
  const MetricsRegistry& m = env.sim().metrics();
  const Histogram* push = m.op_latency("catfish", OpKind::kPush);
  const Histogram* pop = m.op_latency("catfish", OpKind::kPop);
  ASSERT_NE(push, nullptr);
  ASSERT_NE(pop, nullptr);
  EXPECT_EQ(push->count(), 10u);
  EXPECT_GT(push->P50(), 0u);  // durable write: device time always elapses
  EXPECT_EQ(pop->count(), 10u);
}

// --- the zero-cost contract -----------------------------------------------------

struct WorkloadOutcome {
  TimeNs elapsed = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t wakeups = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t packets_tx = 0;
};

WorkloadOutcome RunObservedEcho(bool metrics_enabled, std::size_t msg_bytes = 64) {
  TestHarness env;
  env.sim().metrics().set_enabled(metrics_enabled);
  auto& sh = env.AddHost("server", "10.0.0.1", HostOptions{});
  HostOptions copts;
  copts.charges_clock = false;
  auto& ch = env.AddHost("client", "10.0.0.2", copts);
  DemiServer server(&env.Catnip(sh), kEchoPort, EchoReply);
  LibOS* cl = &env.Catnip(ch);
  DemiClient client(cl, Endpoint{sh.ip, kEchoPort}, 100, EchoRequests(cl, msg_bytes),
                    EchoReplyOk(msg_bytes));
  EXPECT_TRUE(env.RunUntil([&] { return client.done(); }, 60 * kSecond));
  WorkloadOutcome out;
  out.elapsed = env.sim().now();
  out.bytes_copied = env.sim().counters().Get(Counter::kBytesCopied);
  out.wakeups = env.sim().counters().Get(Counter::kWakeups);
  out.doorbells = env.sim().counters().Get(Counter::kDoorbells);
  out.packets_tx = env.sim().counters().Get(Counter::kPacketsTx);
  if (metrics_enabled) {
    EXPECT_GT(env.sim().metrics().sim_stat(SimStat::kReadyRingDepth).count(), 0u);
    // Burst-size distributions record on every doorbell / rx drain.
    EXPECT_GT(env.sim().metrics().sim_stat(SimStat::kTxBurstFrames).count(), 0u);
    EXPECT_GT(env.sim().metrics().sim_stat(SimStat::kRxBurstFrames).count(), 0u);
  } else {
    EXPECT_EQ(env.sim().metrics().sim_stat(SimStat::kTxBurstFrames).count(), 0u);
    EXPECT_EQ(env.sim().metrics().sim_stat(SimStat::kReadyRingDepth).count(), 0u);
    EXPECT_EQ(env.sim().metrics().op_latency("catnip", OpKind::kPop), nullptr);
  }
  return out;
}

TEST(MetricsZeroCostTest, EnabledAndDisabledRunsAreBitIdentical) {
  // Recording never calls HostCpu::Work or advances the clock, so the virtual
  // timeline and every cost counter must match exactly between an instrumented run
  // and a dark one — observability is free in simulated time by construction.
  const WorkloadOutcome on = RunObservedEcho(/*metrics_enabled=*/true);
  const WorkloadOutcome off = RunObservedEcho(/*metrics_enabled=*/false);
  EXPECT_EQ(on.elapsed, off.elapsed);
  EXPECT_EQ(on.bytes_copied, off.bytes_copied);
  EXPECT_EQ(on.wakeups, off.wakeups);
  EXPECT_EQ(on.doorbells, off.doorbells);
  EXPECT_EQ(on.packets_tx, off.packets_tx);
}

TEST(MetricsZeroCostTest, BurstWorkloadRunsAreBitIdentical) {
  // Same contract under the batched data path: 8 KiB messages segment into
  // multi-frame TX bursts and coalesced ACKs, and the burst-size histograms record
  // on every doorbell — none of which may perturb the virtual timeline.
  const WorkloadOutcome on = RunObservedEcho(/*metrics_enabled=*/true, 8192);
  const WorkloadOutcome off = RunObservedEcho(/*metrics_enabled=*/false, 8192);
  EXPECT_EQ(on.elapsed, off.elapsed);
  EXPECT_EQ(on.bytes_copied, off.bytes_copied);
  EXPECT_EQ(on.wakeups, off.wakeups);
  EXPECT_EQ(on.doorbells, off.doorbells);
  EXPECT_EQ(on.packets_tx, off.packets_tx);
}

// --- recovery visibility --------------------------------------------------------

TEST(MetricsTraceTest, FailoverChaosRunLandsInTraceRingMonotonically) {
  FabricConfig fabric;
  fabric.seed = 21;
  TestHarness h(CostModel{}, fabric);
  HostOptions sopts;
  sopts.with_kernel_nic = true;
  auto& server_host = h.AddHost("server", "10.0.0.1", sopts);
  HostOptions copts = sopts;
  copts.charges_clock = false;
  auto& client_host = h.AddHost("client", "10.0.0.2", copts);
  CatnipLibOS& server_libos = h.Catnip(server_host, RecoveryConfig{});
  RecoveryConfig client_cfg;
  client_cfg.fallback_remote = Endpoint{server_host.kernel_ip, kEchoPort};
  client_cfg.has_fallback_remote = true;
  CatnipLibOS& client_libos = h.Catnip(client_host, client_cfg);
  DemiServer server(&server_libos, kEchoPort, EchoReply);
  DemiClient client(&client_libos, Endpoint{server_host.ip, kEchoPort}, 200,
                    EchoRequests(&client_libos, 64), EchoReplyOk(64));
  h.faults().ScheduleDeviceFailure(client_host.nic->fault_device(), 500 * kMicrosecond);

  ASSERT_TRUE(h.RunUntil([&] { return client.done() || client.failed(); }, 60 * kSecond));
  ASSERT_TRUE(client.done());

  const auto events = h.sim().metrics().trace().Events();
  ASSERT_FALSE(events.empty());
  bool saw_fault = false;
  bool saw_failover = false;
  TimeNs prev = 0;
  for (const TraceEvent& ev : events) {
    EXPECT_GE(ev.at, prev);  // sim timestamps are monotonic across the ring
    prev = ev.at;
    saw_fault |= ev.kind == TraceKind::kFaultInjected;
    saw_failover |= ev.kind == TraceKind::kFailover;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_failover);
  // And the run's counters corroborate what the trace says happened.
  EXPECT_GE(h.sim().counters().Get(Counter::kFailovers), 1u);
  const std::string json =
      h.sim().metrics().Snapshot(h.sim().counters(), h.sim().now()).ToJson();
  EXPECT_NE(json.find("\"event\":\"failover\""), std::string::npos);
}

}  // namespace
}  // namespace demi
