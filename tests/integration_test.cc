// System-level integration tests: determinism of the whole stack, the one-sided KV
// extension, end-to-end behaviour under injected faults, and cross-cutting invariants
// no single module test covers.

#include <gtest/gtest.h>

#include "src/apps/actors.h"
#include "src/apps/onesided_kv.h"
#include "src/core/harness.h"

namespace demi {
namespace {

// Runs a fixed echo scenario and returns (final sim time, total wakeups, rtt p50).
std::tuple<TimeNs, std::uint64_t, std::uint64_t> EchoFingerprint(double loss) {
  FabricConfig fabric;
  fabric.loss_rate = loss;
  fabric.seed = 77;
  TestHarness h(CostModel{}, fabric);
  auto& sh = h.AddHost("server", "10.0.0.1");
  HostOptions copts;
  copts.charges_clock = false;
  auto& ch = h.AddHost("client", "10.0.0.2", copts);
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  DemiServer server(&sl, 7, EchoReply);
  DemiClient client(&cl, Endpoint{sh.ip, 7}, 200, EchoRequests(&cl, 64), EchoReplyOk(64));
  EXPECT_TRUE(h.RunUntil([&] { return client.done(); }, 600 * kSecond));
  return {h.sim().now(), h.sim().counters().Get(Counter::kWakeups),
          client.latency().P50()};
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  // The whole point of the simulated substrate: bit-for-bit reproducibility.
  const auto a = EchoFingerprint(0.0);
  const auto b = EchoFingerprint(0.0);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, IdenticalRunsUnderLossAreStillDeterministic) {
  const auto a = EchoFingerprint(0.05);
  const auto b = EchoFingerprint(0.05);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  FabricConfig f1;
  f1.loss_rate = 0.05;
  f1.seed = 1;
  FabricConfig f2 = f1;
  f2.seed = 2;
  auto run = [](FabricConfig fc) {
    TestHarness h(CostModel{}, fc);
    auto& sh = h.AddHost("server", "10.0.0.1");
    auto& ch = h.AddHost("client", "10.0.0.2");
    auto& sl = h.Catnip(sh);
    auto& cl = h.Catnip(ch);
    DemiServer server(&sl, 7, EchoReply);
    DemiClient client(&cl, Endpoint{sh.ip, 7}, 100, EchoRequests(&cl, 64),
                      EchoReplyOk(64));
    EXPECT_TRUE(h.RunUntil([&] { return client.done(); }, 600 * kSecond));
    return h.sim().now();
  };
  EXPECT_NE(run(f1), run(f2));
}

// --- one-sided KV extension (src/apps/onesided_kv) ---

struct OneSidedRig {
  OneSidedRig()
      : h(),
        server_host(h.AddHost("server", "10.0.0.1", RdmaOpts())),
        client_host(h.AddHost("client", "10.0.0.2", RdmaOpts())),
        server(server_host.cpu.get(), server_host.rdma.get(), "kv", 1024) {
    qp = client_host.rdma->Connect("kv");
    h.RunUntil([&] { return qp->connected(); }, kSecond);
    (void)server.Accept();
    client = std::make_unique<OneSidedKvClient>(client_host.cpu.get(),
                                                client_host.rdma.get(), qp,
                                                server.rkey(), server.slots());
  }
  static HostOptions RdmaOpts() {
    HostOptions o;
    o.with_rdma = true;
    o.with_nic = false;
    o.with_kernel = false;
    return o;
  }
  TestHarness h;
  TestHarness::Host& server_host;
  TestHarness::Host& client_host;
  OneSidedKvServer server;
  std::shared_ptr<RdmaQp> qp;
  std::unique_ptr<OneSidedKvClient> client;
};

TEST(OneSidedKvTest, GetReturnsStoredValueWithZeroServerCpu) {
  OneSidedRig rig;
  ASSERT_TRUE(rig.server.Put("alpha", "first value").ok());
  ASSERT_TRUE(rig.server.Put("beta", "second value").ok());
  const std::uint64_t server_cpu = rig.server_host.cpu->busy_ns();
  auto v = rig.client->Get(rig.h.sim(), "alpha");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "first value");
  EXPECT_EQ(*rig.client->Get(rig.h.sim(), "beta"), "second value");
  EXPECT_EQ(rig.server_host.cpu->busy_ns(), server_cpu);  // server never ran
}

TEST(OneSidedKvTest, MissingKeyIsNotFound) {
  OneSidedRig rig;
  EXPECT_EQ(rig.client->Get(rig.h.sim(), "ghost").code(), ErrorCode::kNotFound);
}

TEST(OneSidedKvTest, UpdateVisibleToSubsequentReads) {
  OneSidedRig rig;
  ASSERT_TRUE(rig.server.Put("k", "v1").ok());
  EXPECT_EQ(*rig.client->Get(rig.h.sim(), "k"), "v1");
  ASSERT_TRUE(rig.server.Put("k", "v2-new").ok());
  EXPECT_EQ(*rig.client->Get(rig.h.sim(), "k"), "v2-new");
}

TEST(OneSidedKvTest, RemoveInvalidatesSlot) {
  OneSidedRig rig;
  ASSERT_TRUE(rig.server.Put("k", "v").ok());
  ASSERT_TRUE(rig.server.Remove("k").ok());
  EXPECT_EQ(rig.client->Get(rig.h.sim(), "k").code(), ErrorCode::kNotFound);
}

TEST(OneSidedKvTest, OversizedValuesRejectedByFixedLayout) {
  OneSidedRig rig;
  EXPECT_EQ(rig.server.Put("k", std::string(500, 'v')).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(rig.server.Put(std::string(100, 'k'), "v").code(),
            ErrorCode::kInvalidArgument);
}

// --- fault injection across the whole stack ---

TEST(FaultIntegrationTest, KvWorkloadSurvivesLossyFabric) {
  FabricConfig fabric;
  fabric.loss_rate = 0.02;
  fabric.reorder_rate = 0.05;
  fabric.seed = 31;
  TestHarness h(CostModel{}, fabric);
  auto& sh = h.AddHost("server", "10.0.0.1");
  HostOptions copts;
  copts.charges_clock = false;
  auto& ch = h.AddHost("client", "10.0.0.2", copts);
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  KvEngine engine(sh.cpu.get());
  DemiServer server(&sl, 6379, KvReplies(&engine));
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 100;
  wcfg.value_bytes = 512;
  KvWorkload workload(wcfg);
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    (void)engine.Execute(workload.LoadCommand(k));
  }
  DemiClient client(&cl, Endpoint{sh.ip, 6379}, 200, KvRequests(&cl, &workload), AnyReply);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 3600 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(client.completed(), 200u);
  EXPECT_GT(h.sim().counters().Get(Counter::kRetransmissions), 0u);
}

TEST(FaultIntegrationTest, ServerAbortResetsClientsMidWorkload) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2");
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);

  const QDesc lqd = *sl.Socket();
  ASSERT_TRUE(sl.Bind(lqd, 7000).ok());
  ASSERT_TRUE(sl.Listen(lqd).ok());
  const QToken atok = *sl.AcceptAsync(lqd);

  const QDesc cqd = *cl.Socket();
  const QToken ctok = *cl.ConnectAsync(cqd, Endpoint{sh.ip, 7000});
  ASSERT_TRUE(cl.Wait(ctok, 10 * kSecond)->status.ok());
  auto accepted = sl.Wait(atok, 10 * kSecond);
  ASSERT_TRUE(accepted->status.ok());

  // Client parks a pop; the server then hard-closes its side of the world.
  const QToken pop = *cl.Pop(cqd);
  ASSERT_TRUE(sl.Close(accepted->new_qd).ok());
  auto r = cl.Wait(pop, 60 * kSecond);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->status.ok());  // EOF or reset — never a hang, never garbage
}

TEST(FaultIntegrationTest, MixedLibosHostsShareOneFabric) {
  // One rack, three different server stacks, all reachable concurrently.
  TestHarness h;
  auto& nip_host = h.AddHost("nip", "10.0.0.1");
  auto& nap_host = h.AddHost("nap", "10.0.0.2");
  auto& posix_host = h.AddHost("posix", "10.0.0.3");
  HostOptions copts;
  copts.charges_clock = false;
  auto& client_host = h.AddHost("client", "10.0.0.9", copts);

  auto& nip = h.Catnip(nip_host);
  auto& nap = h.Catnap(nap_host);
  DemiServer s1(&nip, 7, EchoReply);
  DemiServer s2(&nap, 7, EchoReply);
  PosixServer s3(posix_host.kernel.get(), 7, PosixEcho(64));

  auto& cl_nip = h.Catnip(client_host);
  auto& cl_nap = h.Catnap(client_host);
  DemiClient c1(&cl_nip, Endpoint{nip_host.ip, 7}, 50, EchoRequests(&cl_nip, 64),
                EchoReplyOk(64));
  DemiClient c2(&cl_nap, Endpoint{nap_host.ip, 7}, 50, EchoRequests(&cl_nap, 64),
                EchoReplyOk(64));
  PosixEchoClient c3(client_host.kernel.get(), Endpoint{posix_host.ip, 7}, 64, 50);

  ASSERT_TRUE(h.RunUntil([&] { return c1.done() && c2.done() && c3.done(); },
                         600 * kSecond));
  EXPECT_FALSE(c1.failed());
  EXPECT_FALSE(c2.failed());
  EXPECT_EQ(c3.completed(), 50u);
  EXPECT_EQ(s1.served(), 50u);
  EXPECT_EQ(s2.served(), 50u);
  EXPECT_EQ(s3.served(), 50u);
}

}  // namespace
}  // namespace demi
