// Serial SMP smoke (ctest -L smp, RUN_SERIAL): 4 sharded workers, 10^4
// connections, ramp + a measured point. Big enough to exercise ramp waves, RSS
// spread at scale, and sustained multi-core service; serial because it owns the
// machine for tens of seconds and would distort parallel test timing.

#include <gtest/gtest.h>

#include "src/load/smp_harness.h"

namespace demi {
namespace {

TEST(SmpSmoke, FourCoreTenThousandConnections) {
  SmpHarnessConfig cfg;
  cfg.workers = 4;
  cfg.connections = 10'000;
  cfg.client_stacks = 8;
  cfg.ramp_batch = 1024;
  cfg.seed = 5;
  cfg.server_request_cpu_ns = 1000;
  SmpHarness h(cfg);
  ASSERT_TRUE(h.fleet().Ramp());
  EXPECT_EQ(h.fleet().established_connections(), 10'000u);
  EXPECT_EQ(h.pool().total_accepted(), 10'000u);
  for (int w = 0; w < 4; ++w) {
    EXPECT_GT(h.fleet().shard_connections(w), 0u) << "shard " << w;
  }
  SweepPoint pt = h.fleet().RunPoint(200'000, 10 * kMillisecond, 50 * kMillisecond, "smoke");
  EXPECT_GT(pt.completed, 5'000u);
  // Quiesce: with load stopped, every in-flight push acks and drains. What must
  // remain pending is exactly one armed pop per connection plus one armed accept
  // per worker — nothing more (no leaked qtokens), nothing less (no dead loops).
  h.fleet().StopLoad();
  h.sim().RunFor(100 * kMillisecond);
  EXPECT_EQ(h.pool().total_pending_ops(), 10'000u + 4u);
}

}  // namespace
}  // namespace demi
