#include "src/load/smp_harness.h"

#include <algorithm>

#include "src/common/random.h"

namespace demi {

SmpHarness::SmpHarness(SmpHarnessConfig cfg) : cfg_(cfg), fabric_(&sim_, FabricConfig{}) {
  ClientFleetConfig fleet_cfg;
  fleet_cfg.connections = cfg_.connections;
  fleet_cfg.client_stacks = cfg_.client_stacks;
  fleet_cfg.server_ip = Ipv4Address::FromOctets(10, 0, 0, 1);
  fleet_cfg.server_base_port = 7777;
  fleet_cfg.shards = cfg_.workers;
  fleet_cfg.shard_skew = cfg_.shard_skew;
  fleet_cfg.workload = cfg_.workload;
  fleet_cfg.tcp = cfg_.tcp;
  fleet_cfg.tcp.listen_backlog = std::max<std::size_t>(fleet_cfg.tcp.listen_backlog, 4096);
  fleet_cfg.ramp_batch = cfg_.ramp_batch;
  fleet_cfg.seed = cfg_.seed;

  NicConfig nic_cfg;
  nic_cfg.ring_size = 4096;  // ramp waves must fit inside the RX ring
  nic_cfg.num_queues = cfg_.workers;
  server_host_ = std::make_unique<HostCpu>(&sim_, "server-nic", /*charges_clock=*/true);
  server_nic_ = std::make_unique<SimNic>(server_host_.get(), &fabric_,
                                         MacAddress::ForHost(1), nic_cfg);

  SmpConfig smp;
  smp.workers = cfg_.workers;
  smp.port = fleet_cfg.server_base_port;
  smp.ip = fleet_cfg.server_ip;
  smp.tcp = fleet_cfg.tcp;
  smp.seed = MixSeed(cfg_.seed, 0x5e71);
  smp.request_cpu_ns = cfg_.server_request_cpu_ns;
  smp.steal = cfg_.steal;
  smp.steal_threshold = cfg_.steal_threshold;
  smp.steal_batch = cfg_.steal_batch;
  smp.consume_batch = cfg_.consume_batch;
  pool_ = std::make_unique<WorkerPool>(&sim_, server_nic_.get(), smp);

  fleet_ = std::make_unique<ClientFleet>(&sim_, &fabric_, fleet_cfg,
                                         [this] { return pool_->total_accepted(); });
}

}  // namespace demi
