// T2 — multi-tenant fairness on a shared kernel-bypass device.
//
// Three tenants with DWRR weights 4/2/1 each offer an identical, deliberately
// oversubscribing frame flood at one shared NIC's TX DMA engine (every queue
// stays backlogged for the whole window). The claim under test:
//
//  1. Isolation ON: the device's deficit-weighted round robin divides engine
//     bytes by weight — measured shares land within 10% (relative) of 4/7, 2/7,
//     1/7 regardless of arrival interleaving.
//  2. Isolation OFF: the same offered load through the unchecked FIFO engine
//     yields shares that track *offered load* (equal thirds here), not policy —
//     the vulnerable baseline the chaos suite builds on.
//
// Shares are virtual-time exact and deterministic, so both checks gate the
// verdict even in smoke mode.
//
// Environment:
//   BENCH_SMOKE=1    shorter measurement window (ctest smoke).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/hw/fabric.h"
#include "src/hw/nic.h"
#include "src/hw/tenant.h"
#include "src/load/hostile_tenant.h"
#include "src/sim/simulation.h"

namespace demi {
namespace {

constexpr std::uint32_t kWeights[3] = {4, 2, 1};
constexpr std::uint64_t kSeed = 0x7e4a;  // tenant i's flood driver draws from kSeed + i

struct TenantShare {
  std::string name;
  std::uint32_t weight = 0;
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  double share = 0.0;
  double expected = 0.0;
};

struct ArmResult {
  std::vector<TenantShare> tenants;
  std::uint64_t total_bytes = 0;
};

// One measurement arm: shared 3-queue NIC, one flood driver per tenant, equal
// offered load, measure per-tenant engine byte shares over `measure` ns.
ArmResult RunArm(bool isolation_on, TimeNs warmup, TimeNs measure) {
  Simulation sim;
  Fabric fabric(&sim);
  // The drivers' host charges no clock: virtual time advances only through the
  // device's DMA engine events, so shares reflect engine scheduling alone.
  HostCpu host(&sim, "tenants", /*charges_clock=*/false);
  HostCpu sink_host(&sim, "sink", /*charges_clock=*/false);

  NicConfig nic_cfg;
  nic_cfg.num_queues = 3;
  nic_cfg.ring_size = 4096;
  SimNic nic(&host, &fabric, MacAddress::ForHost(1), nic_cfg);
  SimNic sink(&sink_host, &fabric, MacAddress::ForHost(99), NicConfig{});

  TenantRegistry registry(&sim);
  registry.set_isolation_enabled(isolation_on);
  nic.AttachTenantRegistry(&registry);

  std::vector<TenantId> ids;
  std::vector<std::unique_ptr<HostileTenant>> drivers;
  for (int i = 0; i < 3; ++i) {
    TenantQosConfig qos;
    qos.name = "t" + std::to_string(i);
    qos.weight = kWeights[i];
    const TenantId id = registry.Create(qos);
    ids.push_back(id);
    nic.BindQueueTenant(i, id);
    HostileTenantConfig load;
    load.doorbell_rate_per_sec = 200'000.0;  // 32 frames/doorbell = 6.4M fps each
    load.burst_frames = 32;
    load.frame_bytes = 1500;
    load.bogus_fraction = 0.0;
    load.seed = kSeed + static_cast<std::uint64_t>(i);
    drivers.push_back(std::make_unique<HostileTenant>(&sim, &nic, i, id, &registry,
                                                      sink.mac(), load));
  }
  // Staggered starts break tick ties between the drivers; the engine stays
  // saturated either way (total offered ~19M fps vs ~10M fps engine capacity).
  for (int i = 0; i < 3; ++i) {
    sim.Schedule(static_cast<TimeNs>(100 * i), [&drivers, i] { drivers[i]->Start(); });
  }

  sim.RunFor(warmup);
  std::uint64_t base_bytes[3];
  std::uint64_t base_frames[3];
  for (int i = 0; i < 3; ++i) {
    base_bytes[i] = registry.stats(ids[i]).tx_bytes;
    base_frames[i] = registry.stats(ids[i]).tx_frames;
  }
  sim.RunFor(measure);

  ArmResult out;
  std::uint32_t weight_sum = 0;
  for (std::uint32_t w : kWeights) {
    weight_sum += w;
  }
  for (int i = 0; i < 3; ++i) {
    TenantShare ts;
    ts.name = registry.config(ids[i]).name;
    ts.weight = kWeights[i];
    ts.tx_bytes = registry.stats(ids[i]).tx_bytes - base_bytes[i];
    ts.tx_frames = registry.stats(ids[i]).tx_frames - base_frames[i];
    ts.expected = static_cast<double>(kWeights[i]) / weight_sum;
    out.total_bytes += ts.tx_bytes;
    out.tenants.push_back(ts);
  }
  for (TenantShare& ts : out.tenants) {
    ts.share = out.total_bytes > 0
                   ? static_cast<double>(ts.tx_bytes) / static_cast<double>(out.total_bytes)
                   : 0.0;
  }
  for (auto& d : drivers) {
    d->Stop();
  }
  return out;
}

bench::Json ArmJson(const ArmResult& arm) {
  bench::Json tenants = bench::Json::Array();
  for (const TenantShare& t : arm.tenants) {
    tenants.Push(bench::Json::Object()
                     .Add("name", t.name)
                     .Add("weight", t.weight)
                     .Add("tx_frames", t.tx_frames)
                     .Add("tx_bytes", t.tx_bytes)
                     .Add("share", bench::Fixed(t.share, 4))
                     .Add("expected_share", bench::Fixed(t.expected, 4)));
  }
  return tenants;
}

int Run() {
  const bool smoke = []() {
    const char* s = std::getenv("BENCH_SMOKE");
    return s != nullptr && s[0] == '1';
  }();

  bench::Header("T2", "per-tenant DWRR fairness on a shared bypass NIC",
                "with isolation on, shared-engine byte shares match DWRR weights "
                "within 10%; with isolation off, shares track offered load and "
                "ignore policy");

  const TimeNs warmup = 10 * kMillisecond;
  const TimeNs measure = smoke ? 30 * kMillisecond : 120 * kMillisecond;

  bench::Record& rec = bench::Begin("bench_t2_tenants", kSeed);
  rec.config.Add("warmup_ns", warmup).Add("measure_ns", measure).Add("smoke", smoke);

  const ArmResult on = RunArm(/*isolation_on=*/true, warmup, measure);
  const ArmResult off = RunArm(/*isolation_on=*/false, warmup, measure);

  bench::Row("%8s %7s | %14s %9s %9s | %14s %9s\n", "tenant", "weight", "on bytes",
             "on share", "expected", "off bytes", "off share");
  bench::Row("--------------------------------------------------------------------"
             "----------\n");
  bool shares_match = true;
  for (std::size_t i = 0; i < on.tenants.size(); ++i) {
    const TenantShare& t = on.tenants[i];
    const TenantShare& f = off.tenants[i];
    bench::Row("%8s %7u | %14llu %8.1f%% %8.1f%% | %14llu %8.1f%%\n",
               t.name.c_str(), t.weight, static_cast<unsigned long long>(t.tx_bytes),
               100.0 * t.share, 100.0 * t.expected,
               static_cast<unsigned long long>(f.tx_bytes), 100.0 * f.share);
    if (std::abs(t.share - t.expected) > 0.10 * t.expected) {
      shares_match = false;
    }
  }
  // Off: equal offered load through a FIFO engine serves roughly equal thirds —
  // in particular the weight-4 tenant must NOT get anywhere near its 4/7 share.
  const bool off_ignores_weights =
      off.tenants[0].share < 0.45 && off.tenants[2].share > 0.20;
  const bool busy = on.total_bytes > 0 && off.total_bytes > 0;

  rec.sim.Add("isolation_on", ArmJson(on)).Add("isolation_off", ArmJson(off));
  bench::Verdict(busy && shares_match && off_ignores_weights,
                 "DWRR shares within 10% of 4/7, 2/7, 1/7 with isolation on; "
                 "FIFO shares track offered load with isolation off");
  return bench::Finish();
}

}  // namespace
}  // namespace demi

int main() { return demi::Run(); }
