// Integration tests: the echo and KV actors end-to-end on every architecture
// (Demikernel over Catnip/Catnap/Catmint, POSIX over the kernel, mTCP-like), all
// producing identical application results at very different cost signatures.

#include <gtest/gtest.h>

#include "src/apps/actors.h"
#include "src/core/harness.h"

namespace demi {
namespace {

constexpr std::uint16_t kPort = 6379;

HostOptions RdmaOpts() {
  HostOptions o;
  o.with_rdma = true;
  o.with_nic = false;
  o.with_kernel = false;
  return o;
}

HostOptions LoadgenOpts(bool rdma = false) {
  HostOptions o = rdma ? RdmaOpts() : HostOptions{};
  o.charges_clock = false;
  return o;
}

TEST(EchoActorsTest, DemiCatnipEcho) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& server_libos = h.Catnip(sh);
  auto& client_libos = h.Catnip(ch);
  DemiServer server(&server_libos, kPort, EchoReply);
  DemiClient client(&client_libos, Endpoint{sh.ip, kPort}, 100,
                    EchoRequests(&client_libos, 64), EchoReplyOk(64));
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(client.completed(), 100u);
  EXPECT_EQ(server.served(), 100u);
  EXPECT_GT(client.latency().P50(), 0u);
}

TEST(EchoActorsTest, DemiCatnapEcho) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& server_libos = h.Catnap(sh);
  auto& client_libos = h.Catnap(ch);
  DemiServer server(&server_libos, kPort, EchoReply);
  DemiClient client(&client_libos, Endpoint{sh.ip, kPort}, 50,
                    EchoRequests(&client_libos, 64), EchoReplyOk(64));
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(server.served(), 50u);
}

TEST(EchoActorsTest, DemiCatmintEcho) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1", RdmaOpts());
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts(/*rdma=*/true));
  auto& server_libos = h.Catmint(sh);
  auto& client_libos = h.Catmint(ch);
  DemiServer server(&server_libos, kPort, EchoReply);
  DemiClient client(&client_libos, Endpoint{sh.ip, kPort}, 100,
                    EchoRequests(&client_libos, 64), EchoReplyOk(64));
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(server.served(), 100u);
}

TEST(EchoActorsTest, PosixEcho) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  PosixServer server(sh.kernel.get(), kPort, PosixEcho(64));
  PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 100);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_EQ(client.completed(), 100u);
  EXPECT_EQ(server.served(), 100u);
}

TEST(EchoActorsTest, MtcpEcho) {
  TestHarness h;
  HostOptions server_opts;
  server_opts.with_kernel = false;  // mTCP replaces the kernel stack entirely
  auto& sh = h.AddHost("server", "10.0.0.1", server_opts);
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  MtcpConfig mcfg;
  mcfg.ip = sh.ip;
  MtcpStack mtcp(sh.cpu.get(), sh.nic.get(), mcfg);
  MtcpEchoServer server(&mtcp, kPort, 64);
  PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 50);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
  EXPECT_EQ(client.completed(), 50u);
  EXPECT_EQ(server.served(), 50u);
}

TEST(EchoActorsTest, LatencyOrderingMatchesArchitectures) {
  // The paper's core performance claims in one test:
  // catnip (kernel-bypass, zero copy) < posix (kernel) < mtcp (batched user stack).
  auto run_catnip = [] {
    TestHarness h;
    auto& sh = h.AddHost("server", "10.0.0.1");
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    auto& sl = h.Catnip(sh);
    auto& cl = h.Catnip(ch);
    DemiServer server(&sl, kPort, EchoReply);
    DemiClient client(&cl, Endpoint{sh.ip, kPort}, 200, EchoRequests(&cl, 64),
                      EchoReplyOk(64));
    EXPECT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    return client.latency().P50();
  };
  auto run_posix = [] {
    TestHarness h;
    auto& sh = h.AddHost("server", "10.0.0.1");
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    PosixServer server(sh.kernel.get(), kPort, PosixEcho(64));
    PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 200);
    EXPECT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    return client.latency().P50();
  };
  auto run_mtcp = [] {
    TestHarness h;
    HostOptions server_opts;
    server_opts.with_kernel = false;
    auto& sh = h.AddHost("server", "10.0.0.1", server_opts);
    auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
    MtcpConfig mcfg;
    mcfg.ip = sh.ip;
    MtcpStack mtcp(sh.cpu.get(), sh.nic.get(), mcfg);
    MtcpEchoServer server(&mtcp, kPort, 64);
    PosixEchoClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 200);
    EXPECT_TRUE(h.RunUntil([&] { return client.done(); }, 120 * kSecond));
    return client.latency().P50();
  };
  const std::uint64_t catnip = run_catnip();
  const std::uint64_t posix = run_posix();
  const std::uint64_t mtcp = run_mtcp();
  EXPECT_LT(catnip, posix);  // kernel bypass beats the kernel
  EXPECT_LT(posix, mtcp);    // §6: mTCP's latency exceeds the kernel's
}

TEST(KvActorsTest, DemiKvGetSet) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  KvEngine engine(sh.cpu.get());
  DemiServer server(&sl, kPort, KvReplies(&engine));
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 100;
  wcfg.get_ratio = 0.5;
  KvWorkload workload(wcfg);
  // Preload directly into the engine (control path, not measured).
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    (void)engine.Execute(workload.LoadCommand(k));
  }
  DemiClient client(&cl, Endpoint{sh.ip, kPort}, 300, KvRequests(&cl, &workload), AnyReply);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(client.completed(), 300u);
  EXPECT_EQ(server.served(), 300u);
}

TEST(KvActorsTest, PosixKvGetSet) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  KvEngine engine(sh.cpu.get());
  PosixServer server(sh.kernel.get(), kPort, PosixKv(&engine));
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 100;
  wcfg.get_ratio = 0.5;
  KvWorkload workload(wcfg);
  for (std::uint64_t k = 0; k < wcfg.num_keys; ++k) {
    (void)engine.Execute(workload.LoadCommand(k));
  }
  PosixKvClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, &workload, 300);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
  EXPECT_EQ(client.completed(), 300u);
  EXPECT_EQ(server.served(), 300u);
}

TEST(KvActorsTest, FragmentedClientCausesWastedScansOnPosixOnly) {
  // The §3.2 stream pathology: a trickling sender wakes the POSIX server repeatedly
  // with partial requests; a Demikernel server never sees a partial element.
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  KvEngine engine(sh.cpu.get());
  PosixServer server(sh.kernel.get(), kPort, PosixKv(&engine));
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 10;
  wcfg.value_bytes = 512;
  wcfg.get_ratio = 0.0;
  KvWorkload workload(wcfg);
  PosixKvClient client(ch.kernel.get(), Endpoint{sh.ip, kPort}, &workload, 20,
                       /*fragments=*/4, /*fragment_gap_ns=*/20 * kMicrosecond);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
  EXPECT_EQ(client.completed(), 20u);
  // Several wasted scans per request, each counted on the server host.
  EXPECT_GT(sh.cpu->counters().Get(Counter::kStreamScans), 20u);
}

TEST(KvActorsTest, DemiServerNeverSeesPartialRequests) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  KvEngine engine(sh.cpu.get());
  DemiServer server(&sl, kPort, KvReplies(&engine));
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 10;
  wcfg.value_bytes = 4096;  // spans several TCP segments
  wcfg.get_ratio = 0.0;
  KvWorkload workload(wcfg);
  DemiClient client(&cl, Endpoint{sh.ip, kPort}, 50, KvRequests(&cl, &workload), AnyReply);
  ASSERT_TRUE(h.RunUntil([&] { return client.done(); }, 300 * kSecond));
  EXPECT_FALSE(client.failed());
  EXPECT_EQ(server.served(), 50u);
  // No stream scans anywhere on the Demikernel host.
  EXPECT_EQ(sh.cpu->counters().Get(Counter::kStreamScans), 0u);
}

TEST(KvActorsTest, MultipleClientsShareOneServer) {
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& sl = h.Catnip(sh);
  KvEngine engine(sh.cpu.get());
  DemiServer server(&sl, kPort, KvReplies(&engine));
  KvWorkloadConfig wcfg;
  wcfg.num_keys = 50;
  std::vector<std::unique_ptr<KvWorkload>> workloads;
  std::vector<std::unique_ptr<DemiClient>> clients;
  std::vector<TestHarness::Host*> hosts;
  for (int i = 0; i < 4; ++i) {
    auto& chost = h.AddHost("client" + std::to_string(i),
                            "10.0.0." + std::to_string(10 + i), LoadgenOpts());
    hosts.push_back(&chost);
    auto& cl = h.Catnip(chost);
    wcfg.seed = 1000 + i;
    workloads.push_back(std::make_unique<KvWorkload>(wcfg));
    clients.push_back(std::make_unique<DemiClient>(
        &cl, Endpoint{sh.ip, kPort}, 100, KvRequests(&cl, workloads.back().get()), AnyReply));
  }
  ASSERT_TRUE(h.RunUntil(
      [&] {
        for (const auto& c : clients) {
          if (!c->done()) {
            return false;
          }
        }
        return true;
      },
      600 * kSecond));
  EXPECT_EQ(server.served(), 400u);
  for (const auto& c : clients) {
    EXPECT_FALSE(c->failed());
  }
}

TEST(KvActorsTest, ProtocolErrorKeepsTheConnectionServing) {
  // A malformed element gets a RESP error reply, and the same connection then serves
  // a valid GET: one bad element never poisons the queue behind it.
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  KvEngine engine(sh.cpu.get());
  DemiServer server(&sl, kPort, KvReplies(&engine));
  (void)engine.Execute(RespCommand{"SET", "key", "value"});

  const QDesc qd = *cl.Socket();
  auto connected = cl.Wait(*cl.ConnectAsync(qd, Endpoint{sh.ip, kPort}), kSecond);
  ASSERT_TRUE(connected.ok() && connected->status.ok());
  auto round_trip = [&](const std::string& request) -> std::string {
    auto pushed = cl.Wait(*cl.Push(qd, SgArray::FromString(request)), kSecond);
    EXPECT_TRUE(pushed.ok() && pushed->status.ok());
    auto reply = cl.Wait(*cl.Pop(qd), kSecond);
    EXPECT_TRUE(reply.ok() && reply->status.ok());
    return reply.ok() ? reply->sga.ToString() : "";
  };
  EXPECT_EQ(round_trip("*2\r\n$3\r\nGET\r\n$3\r\nke"), "-ERR protocol error\r\n");
  EXPECT_EQ(round_trip(EncodeRespCommand({"GET", "key"})), "$5\r\nvalue\r\n");
  EXPECT_EQ(server.served(), 2u);
  EXPECT_EQ(server.connections(), 1u);
}

TEST(ServerTablesTest, ClosedDemiConnectionsLeaveTheServer) {
  constexpr int kClients = 8;
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  auto& sl = h.Catnip(sh);
  auto& cl = h.Catnip(ch);
  DemiServer server(&sl, kPort, EchoReply);
  std::vector<std::unique_ptr<DemiClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<DemiClient>(&cl, Endpoint{sh.ip, kPort}, 3,
                                                   EchoRequests(&cl, 64), EchoReplyOk(64)));
  }
  ASSERT_TRUE(h.RunUntil(
      [&] {
        for (const auto& c : clients) {
          if (!c->done()) {
            return false;
          }
        }
        return true;
      },
      120 * kSecond));
  EXPECT_EQ(server.served(), 3u * kClients);
  // Every client closed after its last reply; the server drops each on its EOF.
  EXPECT_TRUE(h.RunUntil([&] { return server.connections() == 0; }, 10 * kSecond));
  EXPECT_EQ(server.connections(), 0u);
}

TEST(ServerTablesTest, ClosedPosixConnectionsLeaveTheServer) {
  constexpr int kClients = 8;
  TestHarness h;
  auto& sh = h.AddHost("server", "10.0.0.1");
  auto& ch = h.AddHost("client", "10.0.0.2", LoadgenOpts());
  PosixServer server(sh.kernel.get(), kPort, PosixEcho(64));
  std::vector<std::unique_ptr<PosixEchoClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(
        std::make_unique<PosixEchoClient>(ch.kernel.get(), Endpoint{sh.ip, kPort}, 64, 3));
  }
  ASSERT_TRUE(h.RunUntil(
      [&] {
        for (const auto& c : clients) {
          if (!c->done()) {
            return false;
          }
        }
        return true;
      },
      120 * kSecond));
  EXPECT_EQ(server.served(), 3u * kClients);
  EXPECT_TRUE(h.RunUntil([&] { return server.connections() == 0; }, 10 * kSecond));
  EXPECT_EQ(server.connections(), 0u);
}

}  // namespace
}  // namespace demi
