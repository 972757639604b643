// Open-loop load harness: 10^5..10^6 concurrent TCP connections from a ClientFleet
// (client_fleet.h) against a lean echo/KV server on a raw NetStack.
//
// Topology (one Simulation, one fabric): one server host (charges the clock: it IS
// the system under test) with a multi-queue-capable NIC and one NetStack listening
// on `server_ports` ports, then the fleet's `client_stacks` load-generator hosts.
//
// The server speaks the fleet's framed protocol without a libOS: it consumes fixed
// 4 + request_bytes units off each TCP stream (a 4-byte frame length, then the
// request), reads the response length from the request's first 4 bytes, and
// replies with one framed element whose body is a zero-copy slice of a shared
// blob. The only Poller is the server's accept drain plus amortized reaping.

#ifndef SRC_LOAD_OPEN_LOOP_RUNNER_H_
#define SRC_LOAD_OPEN_LOOP_RUNNER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/fifo.h"
#include "src/common/status.h"
#include "src/hw/fabric.h"
#include "src/hw/nic.h"
#include "src/hw/tenant.h"
#include "src/load/arrival.h"
#include "src/load/client_fleet.h"
#include "src/load/hostile_tenant.h"
#include "src/load/workload.h"
#include "src/memory/memory_manager.h"
#include "src/net/stack.h"
#include "src/sim/simulation.h"

namespace demi {

// Multi-tenant chaos mode for the load harness. When enabled, the server NIC
// becomes a two-queue shared device governed by a TenantRegistry: the echo
// server is the *victim* tenant on queue 0 (its stack's listen ports are flow-
// steered there) and a HostileTenant co-tenant floods queue 1 with raw frames
// aimed at a dedicated sink NIC that never drains. The victim's capability set
// is covered three ways: a MemoryManager bound to the tenant supplies every
// protocol header (transparent registration), the shared response blob is
// granted explicitly, and echoed request payloads are legal via device RX
// grants. `isolation_on` is the experiment knob: on, the device contains the
// hostile tenant (buckets + DWRR + capability checks); off reproduces the
// unprotected first-come-first-served device.
struct OpenLoopTenantConfig {
  bool enabled = false;
  bool isolation_on = true;
  TenantQosConfig victim{.name = "victim", .weight = 8};
  TenantQosConfig hostile{.name = "hostile",
                          .weight = 1,
                          .doorbells_per_sec = 50'000.0,
                          .doorbell_burst = 32.0,
                          .descriptors_per_sec = 2'000'000.0,
                          .descriptor_burst = 256.0};
  HostileTenantConfig hostile_load;
};

struct OpenLoopConfig {
  std::size_t connections = 100'000;
  std::size_t client_stacks = 8;
  std::size_t server_ports = 64;
  WorkloadConfig workload;
  ArrivalConfig arrival;
  TcpConfig tcp;  // applied to both sides; listen_backlog is raised to >= 4096
  FabricConfig fabric;  // loss/reorder knobs for lossy-sweep experiments
  // Stressors (0 / unset disables each).
  double churn_per_sec = 0.0;
  double slow_client_fraction = 0.0;
  TimeNs slow_drain_delay_ns = 1 * kMillisecond;
  std::size_t incast_fanin = 0;
  TimeNs incast_period_ns = 10 * kMillisecond;
  // Application-level service time charged to the server host per request.
  TimeNs server_work_per_request_ns = 500;
  // Connections opened per ramp wave. Each wave's SYNs land on the server NIC
  // within ~a wire latency of each other, so the wave must fit well inside the
  // 4096-slot RX ring or synchronized SYN retransmits collapse in lockstep.
  std::size_t ramp_batch = 2048;
  std::uint64_t seed = 1;
  OpenLoopTenantConfig tenant;  // disabled by default; see struct comment
};

class OpenLoopRunner final : public Poller {
 public:
  // Validates the fleet's capacity and counts (ClientFleet::ValidateConfig) and
  // the tenant weights without building anything. The constructor panics on an
  // invalid config; callers that take untrusted configs should call this first
  // and surface the typed error instead.
  static Status ValidateConfig(const OpenLoopConfig& cfg);

  explicit OpenLoopRunner(OpenLoopConfig cfg);
  ~OpenLoopRunner() override;
  OpenLoopRunner(const OpenLoopRunner&) = delete;
  OpenLoopRunner& operator=(const OpenLoopRunner&) = delete;

  Simulation& sim() { return sim_; }
  ClientFleet& fleet() { return *fleet_; }

  // Server-side accept drain + amortized connection reaping.
  bool Poll() override;

  std::uint64_t accepted_connections() const { return accepted_; }
  std::uint64_t served_total() const { return served_; }

  // --- tenant mode (null / kNoTenant unless cfg.tenant.enabled) ---
  TenantRegistry* tenant_registry() { return tenant_registry_.get(); }
  TenantId victim_tenant() const { return victim_tenant_; }
  TenantId hostile_tenant() const { return hostile_tenant_; }
  HostileTenant* hostile() { return hostile_.get(); }

 private:
  struct SrvConn {
    std::size_t got = 0;  // bytes of the current request unit consumed so far
    std::uint8_t hdr[kResponseHeaderBytes] = {};
    Fifo<Buffer> backlog;  // response parts awaiting send-buffer space
  };

  void OnServerReady(TcpConnection* tc);
  void ConsumeRequestBytes(TcpConnection* tc, SrvConn& sc, const Buffer& b);
  void ServeRequest(TcpConnection* tc, SrvConn& sc, std::uint32_t resp_bytes);

  OpenLoopConfig cfg_;
  Simulation sim_;
  Fabric fabric_;
  Buffer response_blob_;  // shared storage for all response payloads

  std::unordered_map<TcpConnection*, SrvConn> srv_conns_;
  std::vector<TcpListener*> listeners_;
  std::uint64_t accepted_ = 0;
  std::uint64_t served_ = 0;

  // Tenant mode. Declared before the hardware so the registry and allocator are
  // destroyed after the device and stack that reference them.
  std::unique_ptr<TenantRegistry> tenant_registry_;
  std::unique_ptr<MemoryManager> server_memory_;
  TenantId victim_tenant_ = kNoTenant;
  TenantId hostile_tenant_ = kNoTenant;

  // Hardware, stacks and the fleet last: destroyed first, while the state above
  // is alive.
  std::unique_ptr<HostCpu> server_host_;
  std::unique_ptr<SimNic> server_nic_;
  std::unique_ptr<NetStack> server_stack_;
  std::unique_ptr<ClientFleet> fleet_;
  // Hostile co-tenant and its traffic sink (tenant mode only); destroyed before
  // the shared NIC they reference.
  std::unique_ptr<HostCpu> sink_host_;
  std::unique_ptr<SimNic> sink_nic_;
  std::unique_ptr<HostileTenant> hostile_;
};

}  // namespace demi

#endif  // SRC_LOAD_OPEN_LOOP_RUNNER_H_
