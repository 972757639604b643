// S1 — multi-core scale-out: RSS-sharded libOS workers with ZygOS-style
// completion stealing (DESIGN.md §13).
//
// Two claims:
//
//  1. Shared-nothing RSS sharding scales: N workers, each with its own core, NIC
//     queue pair, flow table, and connection shard, deliver near-linear saturated
//     throughput — >= 3x at 4 cores for both echo and KV — because nothing on the
//     data path is shared, exactly the scaling argument kernel-bypass stacks make.
//
//  2. Pure sharding is fragile under skew: concentrate the offered load on one
//     shard and its tail collapses while its neighbours idle. ZygOS-style stealing
//     of ready completions (with explicit cross-core probe/IPI/cache-line costs)
//     absorbs the imbalance: steal-on p99 <= 0.5x steal-off at the same skewed
//     offered load.
//
// Both arms of every comparison run the same seed, so the curves differ only by
// the knob under test. A final same-seed double run checks bit determinism of the
// whole multi-core schedule, stealing included.
//
// Environment:
//   BENCH_SMOKE=1   fewer connections and shorter windows (ctest smoke).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/load/smp_harness.h"
#include "src/sim/counters.h"

namespace demi {
namespace {

using bench::Json;

struct ScalePoint {
  int workers;
  double offered_rps;
  SweepPoint pt;
};

struct Shape {
  bool smoke;
  std::size_t conns_per_worker;
  TimeNs warmup;
  TimeNs measure;
};

SmpHarnessConfig BaseConfig(const Shape& shape, int workers, WorkloadKind kind) {
  SmpHarnessConfig cfg;
  cfg.workers = workers;
  // The SAME connection fleet at every worker count: otherwise per-connection
  // pipeline limits scale with the fleet and masquerade as core scaling.
  cfg.connections = shape.conns_per_worker * 4;
  cfg.client_stacks = 4;
  cfg.ramp_batch = 256;
  cfg.seed = 1;
  // 4us of app work per request puts the per-core knee around 200 krps: large
  // enough that worker-core work dominates shared ingress costs (the scaling
  // claim is about the sharded data path, not the fabric model).
  cfg.server_request_cpu_ns = 4000;
  cfg.workload.kind = kind;
  return cfg;
}

ScalePoint SaturatedThroughput(const Shape& shape, int workers, WorkloadKind kind) {
  SmpHarnessConfig cfg = BaseConfig(shape, workers, kind);
  SmpHarness h(cfg);
  if (!h.fleet().Ramp()) {
    std::printf("[SHAPE-FAIL] ramp failed at %d workers\n", workers);
    std::exit(1);
  }
  // Offered load well past N cores' aggregate capacity: achieved throughput at
  // this point IS the saturated service rate.
  const double offered = 400'000.0 * workers;
  ScalePoint sp{workers, offered,
                h.fleet().RunPoint(offered, shape.warmup, shape.measure, "saturate")};
  h.fleet().StopLoad();
  return sp;
}

struct SkewArm {
  SweepPoint pt;
  std::uint64_t stolen;
  std::uint64_t steal_attempts;
  std::size_t shard_conns[4];
  std::uint64_t shard_served[4];

  // Victim probes per completion actually moved; callers check stolen > 0.
  double AttemptsPerStolen() const {
    return static_cast<double>(steal_attempts) / static_cast<double>(stolen);
  }
};

SkewArm SkewedTail(const Shape& shape, bool steal) {
  SmpHarnessConfig cfg = BaseConfig(shape, 4, WorkloadKind::kEcho);
  cfg.steal = steal;
  cfg.shard_skew = 1.5;
  SmpHarness h(cfg);
  if (!h.fleet().Ramp()) {
    std::printf("[SHAPE-FAIL] skew ramp failed (steal=%d)\n", steal ? 1 : 0);
    std::exit(1);
  }
  // With skew 1.5 the hottest shard carries ~60% of the aggregate: 360 krps
  // puts ~216 krps on one core (past its per-core service rate) while total
  // demand stays well under 4-core capacity (~450 krps, see section 1). That
  // gap matters twice: thieves only probe when their own ring is empty, so the
  // neighbours must have genuine idle cycles — and the hot shard must be
  // genuinely past ITS capacity or there is nothing to steal. Steal-off, the
  // hot shard's ready ring diverges for the whole window; steal-on, idle
  // neighbours drain it.
  SkewArm arm;
  arm.pt = h.fleet().RunPoint(360'000, shape.warmup, 2 * shape.measure, "skew");
  arm.stolen = h.pool().total_stolen();
  arm.steal_attempts = h.sim().counters().Get(Counter::kStealAttempts);
  for (int w = 0; w < 4; ++w) {
    arm.shard_conns[w] = h.fleet().shard_connections(w);
    arm.shard_served[w] = h.pool().worker(w).requests_served();
  }
  h.fleet().StopLoad();
  return arm;
}

struct Digest {
  TimeNs end_clock;
  std::uint64_t completed;
  std::uint64_t stolen;

  bool operator==(const Digest&) const = default;
};

Digest DeterminismRun(const Shape& shape) {
  SmpHarnessConfig cfg = BaseConfig(shape, 4, WorkloadKind::kKv);
  cfg.connections = 64;
  cfg.client_stacks = 2;
  cfg.shard_skew = 1.5;  // skewed so the deterministic schedule includes steals
  cfg.seed = 11;
  SmpHarness h(cfg);
  if (!h.fleet().Ramp()) {
    std::printf("[SHAPE-FAIL] determinism ramp failed\n");
    std::exit(1);
  }
  std::ignore = h.fleet().RunPoint(360'000, shape.warmup, shape.measure, "det");
  return Digest{h.sim().now(), h.fleet().completed_total(), h.pool().total_stolen()};
}

const char* KindName(WorkloadKind k) {
  return k == WorkloadKind::kEcho ? "echo" : "kv";
}

Json ArmJson(const SkewArm& arm) {
  Json conns = Json::Array();
  Json served = Json::Array();
  for (int w = 0; w < 4; ++w) {
    conns.Push(arm.shard_conns[w]);
    served.Push(arm.shard_served[w]);
  }
  return Json::Object()
      .Add("achieved_rps", bench::Fixed(arm.pt.achieved_rps, 0))
      .Add("p50_ns", arm.pt.latency.p50)
      .Add("p99_ns", arm.pt.latency.p99)
      .Add("p999_ns", arm.pt.latency.p999)
      .Add("stolen", arm.stolen)
      .Add("steal_attempts", arm.steal_attempts)
      .Add("attempts_per_stolen",
           arm.stolen > 0 ? bench::Fixed(arm.AttemptsPerStolen(), 3) : nullptr)
      .Add("shard_conns", conns)
      .Add("shard_served", served);
}

Json DigestJson(const Digest& d) {
  return Json::Object()
      .Add("end_clock_ns", d.end_clock)
      .Add("completed", d.completed)
      .Add("stolen", d.stolen);
}

int Run() {
  const bool smoke = []() {
    const char* s = std::getenv("BENCH_SMOKE");
    return s != nullptr && s[0] == '1';
  }();
  const Shape shape{smoke, smoke ? std::size_t{32} : std::size_t{96},
                    smoke ? 5 * kMillisecond : 10 * kMillisecond,
                    smoke ? 20 * kMillisecond : 40 * kMillisecond};

  bench::Header("S1", "multi-core scale-out: RSS shards + completion stealing",
                "shared-nothing RSS sharding scales >= 3x at 4 cores; ZygOS-style "
                "completion stealing halves p99 under Zipf-skewed shard imbalance");
  bench::PrintCostModel(CostModel{});
  const SmpHarnessConfig base = BaseConfig(shape, 1, WorkloadKind::kEcho);
  bench::Record& rec = bench::Begin("bench_s1_scaling", base.seed);
  rec.config.Add("conns_per_worker", shape.conns_per_worker)
      .Add("warmup_ns", shape.warmup)
      .Add("measure_ns", shape.measure)
      .Add("request_cpu_ns", base.server_request_cpu_ns)
      .Add("smoke", shape.smoke);

  // --- Section 1: saturated throughput vs cores --------------------------------
  std::printf("saturated throughput vs cores (offered 400 krps/core, %lld ms "
              "window):\n\n",
              static_cast<long long>(shape.measure / kMillisecond));
  bench::Row("%8s %8s | %14s %14s %10s %10s\n", "workload", "workers",
             "offered rps", "achieved rps", "speedup", "completed");
  bench::Row("--------------------------------------------------------------------"
             "--\n");
  double speedup4[2] = {0, 0};
  for (WorkloadKind kind : {WorkloadKind::kEcho, WorkloadKind::kKv}) {
    std::vector<ScalePoint> curve;
    Json rows = Json::Array();
    for (int workers : {1, 2, 4}) {
      curve.push_back(SaturatedThroughput(shape, workers, kind));
      const ScalePoint& s = curve.back();
      const double speedup = s.pt.achieved_rps / curve.front().pt.achieved_rps;
      bench::Row("%8s %8d | %14.0f %14.0f %9.2fx %10llu\n", KindName(kind),
                 s.workers, s.offered_rps, s.pt.achieved_rps, speedup,
                 static_cast<unsigned long long>(s.pt.completed));
      rows.Push(Json::Object()
                    .Add("workers", s.workers)
                    .Add("offered_rps", bench::Fixed(s.offered_rps, 0))
                    .Add("achieved_rps", bench::Fixed(s.pt.achieved_rps, 0))
                    .Add("speedup", bench::Fixed(speedup, 2))
                    .Add("completed", s.pt.completed));
      if (workers == 4) {
        speedup4[kind == WorkloadKind::kEcho ? 0 : 1] = speedup;
      }
    }
    rec.sim.Add(kind == WorkloadKind::kEcho ? "scaling_echo" : "scaling_kv", rows);
  }

  // --- Section 2: skewed shard load, stealing on vs off ------------------------
  std::printf("\nZipf-skewed shard imbalance (skew 1.5, 360 krps aggregate, 4 "
              "workers; hot shard alone is over one core's capacity):\n\n");
  bench::Row("%10s | %14s %10s %10s %10s %10s %14s %16s\n", "stealing",
             "achieved rps", "p50 us", "p99 us", "p99.9 us", "stolen",
             "steal attempts", "attempts/stolen");
  bench::Row("--------------------------------------------------------------------"
             "------------------------------------\n");
  const SkewArm off = SkewedTail(shape, false);
  const SkewArm on = SkewedTail(shape, true);
  for (const auto* arm : {&off, &on}) {
    char per_stolen[32] = "-";
    if (arm->stolen > 0) {
      std::snprintf(per_stolen, sizeof(per_stolen), "%.3f", arm->AttemptsPerStolen());
    }
    bench::Row("%10s | %14.0f %10.1f %10.1f %10.1f %10llu %14llu %16s\n",
               arm == &on ? "on" : "off", arm->pt.achieved_rps,
               static_cast<double>(arm->pt.latency.p50) / 1e3,
               static_cast<double>(arm->pt.latency.p99) / 1e3,
               static_cast<double>(arm->pt.latency.p999) / 1e3,
               static_cast<unsigned long long>(arm->stolen),
               static_cast<unsigned long long>(arm->steal_attempts), per_stolen);
    bench::Row("%10s |   per-shard conns %zu/%zu/%zu/%zu, served "
               "%llu/%llu/%llu/%llu\n",
               "", arm->shard_conns[0], arm->shard_conns[1], arm->shard_conns[2],
               arm->shard_conns[3],
               static_cast<unsigned long long>(arm->shard_served[0]),
               static_cast<unsigned long long>(arm->shard_served[1]),
               static_cast<unsigned long long>(arm->shard_served[2]),
               static_cast<unsigned long long>(arm->shard_served[3]));
  }

  // --- Section 3: bit determinism ----------------------------------------------
  const Digest d1 = DeterminismRun(shape);
  const Digest d2 = DeterminismRun(shape);
  const bool deterministic = d1 == d2 && d1.completed > 0;
  std::printf("\nsame-seed double run (4 workers, stealing): clock %lld/%lld, "
              "completed %llu/%llu, stolen %llu/%llu -> %s\n",
              static_cast<long long>(d1.end_clock),
              static_cast<long long>(d2.end_clock),
              static_cast<unsigned long long>(d1.completed),
              static_cast<unsigned long long>(d2.completed),
              static_cast<unsigned long long>(d1.stolen),
              static_cast<unsigned long long>(d2.stolen),
              deterministic ? "identical" : "DIVERGED");
  std::printf("\n");
  rec.sim.Add("skew_steal_off", ArmJson(off))
      .Add("skew_steal_on", ArmJson(on))
      .Add("determinism_runs", Json::Array().Push(DigestJson(d1)).Push(DigestJson(d2)))
      .Add("deterministic", deterministic);

  const bool scales = speedup4[0] >= 3.0 && speedup4[1] >= 3.0;
  const bool steal_halves_tail =
      on.pt.latency.p99 * 2 <= off.pt.latency.p99 && on.stolen > 0;
  bench::Verdict(scales, "4 workers deliver >= 3x 1-worker saturated throughput "
                         "(echo and KV)");
  bench::Verdict(steal_halves_tail,
                 "under skewed shard load, stealing cuts p99 to <= 0.5x of the "
                 "no-steal tail");
  bench::Verdict(deterministic,
                 "same seed -> bit-identical multi-core run (clock, completions, "
                 "steals)");
  return bench::Finish();
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
