#include "src/load/open_loop_runner.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/result.h"
#include "src/net/framing.h"

namespace demi {

namespace {

constexpr std::uint16_t kServerBasePort = 5000;
// Every request on the wire is a 4-byte frame length followed by the request.
constexpr std::size_t kFrameHeaderBytes = 4;

ClientFleetConfig FleetConfig(const OpenLoopConfig& cfg) {
  ClientFleetConfig f;
  f.connections = cfg.connections;
  f.client_stacks = cfg.client_stacks;
  f.server_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  f.server_base_port = kServerBasePort;
  f.server_ports = cfg.server_ports;
  f.workload = cfg.workload;
  f.arrival = cfg.arrival;
  f.tcp = cfg.tcp;
  f.tcp.listen_backlog = std::max<std::size_t>(f.tcp.listen_backlog, 4096);
  f.churn_per_sec = cfg.churn_per_sec;
  f.slow_client_fraction = cfg.slow_client_fraction;
  f.slow_drain_delay_ns = cfg.slow_drain_delay_ns;
  f.incast_fanin = cfg.incast_fanin;
  f.incast_period_ns = cfg.incast_period_ns;
  f.ramp_batch = cfg.ramp_batch;
  f.seed = cfg.seed;
  return f;
}

}  // namespace

Status OpenLoopRunner::ValidateConfig(const OpenLoopConfig& cfg) {
  RETURN_IF_ERROR(ClientFleet::ValidateConfig(FleetConfig(cfg)));
  if (cfg.tenant.enabled && cfg.tenant.victim.weight == 0) {
    return InvalidArgument("open-loop config: victim tenant weight must be > 0");
  }
  return OkStatus();
}

OpenLoopRunner::OpenLoopRunner(OpenLoopConfig cfg) : cfg_(cfg), fabric_(&sim_, cfg.fabric) {
  if (const Status valid = ValidateConfig(cfg_); !valid.ok()) {
    PanicImpl(__FILE__, __LINE__, valid.message());
  }
  const ClientFleetConfig fleet_cfg = FleetConfig(cfg_);

  response_blob_ = Buffer::Allocate(kMaxResponseBytes);
  std::memset(response_blob_.mutable_data(), 0, response_blob_.size());

  NicConfig nic_cfg;
  nic_cfg.ring_size = 4096;  // ramp waves and incast bursts exceed the 256 default
  NicConfig server_nic_cfg = nic_cfg;
  if (cfg_.tenant.enabled) {
    server_nic_cfg.num_queues = 2;  // queue 0: victim stack; queue 1: hostile tenant
  }
  server_host_ = std::make_unique<HostCpu>(&sim_, "loadsrv", /*charges_clock=*/true);
  server_nic_ = std::make_unique<SimNic>(server_host_.get(), &fabric_,
                                         MacAddress::ForHost(1), server_nic_cfg);
  NetStackConfig scfg;
  scfg.ip = fleet_cfg.server_ip;
  scfg.rx_batch = 256;
  scfg.tcp = fleet_cfg.tcp;
  scfg.seed = MixSeed(cfg_.seed, 0x5e71);
  if (cfg_.tenant.enabled) {
    tenant_registry_ = std::make_unique<TenantRegistry>(&sim_);
    tenant_registry_->set_isolation_enabled(cfg_.tenant.isolation_on);
    server_nic_->AttachTenantRegistry(tenant_registry_.get());
    victim_tenant_ = tenant_registry_->Create(cfg_.tenant.victim);
    hostile_tenant_ = tenant_registry_->Create(cfg_.tenant.hostile);
    server_nic_->BindQueueTenant(0, victim_tenant_);
    server_nic_->BindQueueTenant(1, hostile_tenant_);
    // Victim capability coverage: the stack and the response framing draw every
    // header from this manager (BindTenant grants each arena, current and
    // future), response payloads are zero-copy slices of the blob granted below,
    // and echoed request bytes are covered by device RX grants. Nothing the
    // victim posts should ever trip a capability check.
    server_memory_ = std::make_unique<MemoryManager>(server_host_.get());
    server_memory_->BindTenant(tenant_registry_.get(), victim_tenant_);
    tenant_registry_->GrantRegion(victim_tenant_,
                                  response_blob_.storage()->registration_root());
    scfg.memory = server_memory_.get();
  }
  server_stack_ = std::make_unique<NetStack>(server_host_.get(), server_nic_.get(), scfg);
  for (std::size_t p = 0; p < cfg_.server_ports; ++p) {
    auto l = server_stack_->TcpListen(static_cast<std::uint16_t>(kServerBasePort + p));
    DEMI_CHECK(l.ok());
    listeners_.push_back(l.value());
  }

  fleet_ = std::make_unique<ClientFleet>(&sim_, &fabric_, fleet_cfg,
                                         [this] { return accepted_; });

  if (cfg_.tenant.enabled) {
    // The hostile tenant floods raw frames at a sink NIC that never drains its
    // rings, so attack traffic exercises the shared device without involving
    // any stack. The sink host charges no clock: it is scenery. Its MAC sits
    // between the server's (host 1) and the client stacks' (hosts 10 and up).
    sink_host_ = std::make_unique<HostCpu>(&sim_, "sink", /*charges_clock=*/false);
    sink_nic_ = std::make_unique<SimNic>(sink_host_.get(), &fabric_,
                                         MacAddress::ForHost(2), nic_cfg);
    hostile_ = std::make_unique<HostileTenant>(
        &sim_, server_nic_.get(), /*queue=*/1, hostile_tenant_,
        tenant_registry_.get(), sink_nic_->mac(), cfg_.tenant.hostile_load);
  }

  sim_.AddPoller(this);
}

OpenLoopRunner::~OpenLoopRunner() { sim_.RemovePoller(this); }

bool OpenLoopRunner::Poll() {
  bool did = false;
  for (TcpListener* l : listeners_) {
    while (TcpConnection* tc = l->Accept()) {
      ++accepted_;
      srv_conns_.emplace(tc, SrvConn{});
      tc->set_on_ready([this](TcpConnection* c) { OnServerReady(c); });
      // Data (or a reset) may have landed between establishment and this accept.
      if (tc->readable() || tc->dead()) {
        OnServerReady(tc);
      }
      did = true;
    }
  }
  // Amortized reaping from a top-level context (never from inside a callback):
  // each sweep is O(live), so trigger it once per kReapThreshold deaths.
  if (server_stack_->closed_unreaped() > ClientFleet::kReapThreshold) {
    server_stack_->ReapClosed();
    did = true;
  }
  return fleet_->ReapClosed() || did;
}

void OpenLoopRunner::OnServerReady(TcpConnection* tc) {
  auto it = srv_conns_.find(tc);
  if (it == srv_conns_.end()) {
    return;
  }
  SrvConn& sc = it->second;
  if (tc->dead()) {
    srv_conns_.erase(it);
    return;
  }
  while (tc->readable()) {
    Buffer b = tc->Recv(1 << 20);
    if (b.empty()) {
      break;
    }
    ConsumeRequestBytes(tc, sc, b);
  }
  if (tc->recv_eof()) {
    tc->Close();  // half-close from the client: finish our side
  }
  FlushBacklog(*tc, sc.backlog);
}

void OpenLoopRunner::ConsumeRequestBytes(TcpConnection* tc, SrvConn& sc,
                                         const Buffer& b) {
  // One unit is the frame length, then the request, whose first kResponseHeaderBytes
  // name the response length: unit bytes [4, 8).
  constexpr std::size_t kHdrBegin = kFrameHeaderBytes;
  constexpr std::size_t kHdrEnd = kFrameHeaderBytes + kResponseHeaderBytes;
  const std::size_t unit = kFrameHeaderBytes + cfg_.workload.request_bytes;
  const std::byte* data = b.data();
  std::size_t off = 0;
  const std::size_t n = b.size();
  while (off < n) {
    const std::size_t take = std::min(unit - sc.got, n - off);
    const std::size_t lo = std::max(sc.got, kHdrBegin);
    const std::size_t hi = std::min(sc.got + take, kHdrEnd);
    if (lo < hi) {
      std::memcpy(sc.hdr + (lo - kHdrBegin), data + off + (lo - sc.got), hi - lo);
    }
    sc.got += take;
    off += take;
    if (sc.got == unit) {
      sc.got = 0;
      ServeRequest(tc, sc, DecodeResponseBytes(sc.hdr));
    }
  }
}

void OpenLoopRunner::ServeRequest(TcpConnection* tc, SrvConn& sc,
                                  std::uint32_t resp_bytes) {
  server_host_->Work(cfg_.server_work_per_request_ns);
  ++served_;
  // Responses stay in order behind any backlogged predecessors.
  SendOrQueue(*tc, sc.backlog,
              EncodeFrame(SgArray(response_blob_.Slice(0, resp_bytes)), server_memory_.get()));
}

}  // namespace demi
