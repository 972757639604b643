// ClientFleet reconciliation (ctest -L 'load|smp'): the fleet counts framed
// responses by bytes (4 + response_bytes each) rather than parsing them, so the
// byte count only lines up if every server replies with exactly one frame of the
// requested length per request. KV responses vary from 64 B to 4 KB, so any
// off-by-a-header mismatch shows up as stray bytes or requests that never
// complete. Checked against both servers: OpenLoopRunner's raw NetStack loop and
// SmpHarness's Catnip workers.

#include <gtest/gtest.h>

#include "src/load/open_loop_runner.h"
#include "src/load/smp_harness.h"

namespace demi {
namespace {

constexpr double kRate = 40'000;
constexpr TimeNs kWarmup = 1 * kMillisecond;
constexpr TimeNs kMeasure = 10 * kMillisecond;

// Stops the load and runs until every issued request has completed.
void Drain(ClientFleet& fleet, Simulation& sim) {
  fleet.StopLoad();
  sim.RunUntil([&] { return fleet.completed_total() >= fleet.issued_total(); },
               sim.now() + 1 * kSecond);
}

TEST(ClientFleetReconcile, RawStackServerAnswersEveryKvRequestInFrames) {
  OpenLoopConfig cfg;
  cfg.connections = 256;
  cfg.client_stacks = 2;
  cfg.server_ports = 4;
  cfg.ramp_batch = 128;
  cfg.workload.kind = WorkloadKind::kKv;
  cfg.seed = 3;
  OpenLoopRunner r(cfg);
  ASSERT_TRUE(r.fleet().Ramp());
  const SweepPoint pt = r.fleet().RunPoint(kRate, kWarmup, kMeasure);
  EXPECT_GT(pt.completed, 100u);
  Drain(r.fleet(), r.sim());

  EXPECT_EQ(r.fleet().completed_total(), r.fleet().issued_total());
  EXPECT_EQ(r.served_total(), r.fleet().issued_total());
  EXPECT_EQ(r.fleet().stray_response_bytes(), 0u);
}

TEST(ClientFleetReconcile, SmpWorkersAnswerEveryKvRequestInFrames) {
  SmpHarnessConfig cfg;
  cfg.workers = 2;
  cfg.connections = 256;
  cfg.client_stacks = 2;
  cfg.ramp_batch = 128;
  cfg.workload.kind = WorkloadKind::kKv;
  cfg.seed = 3;
  SmpHarness h(cfg);
  ASSERT_TRUE(h.fleet().Ramp());
  const SweepPoint pt = h.fleet().RunPoint(kRate, kWarmup, kMeasure, "reconcile");
  EXPECT_GT(pt.completed, 100u);
  Drain(h.fleet(), h.sim());

  EXPECT_EQ(h.fleet().completed_total(), h.fleet().issued_total());
  EXPECT_EQ(h.pool().total_served(), h.fleet().issued_total());
  EXPECT_EQ(h.fleet().stray_response_bytes(), 0u);
  EXPECT_EQ(h.fleet().shard_connections(0) + h.fleet().shard_connections(1),
            cfg.connections);
}

}  // namespace
}  // namespace demi
