// Open-loop load harness for the RSS-sharded multi-core worker pool (DESIGN.md §13).
//
// Topology (one Simulation, one fabric):
//   - one server host: a multi-queue bypass NIC shared by a WorkerPool of N
//     kernel-less Catnip workers, worker w on sim core w+1 driving NIC queue w;
//   - a ClientFleet (client_fleet.h) of `client_stacks` load-generator hosts on
//     core 0, speaking the fleet's framed protocol to the workers' Catnip queues.
//
// The fleet runs one shard per worker, so `shard_skew` concentrates load on worker
// 0's connections: the imbalance completion stealing exists to absorb. Steal off,
// the hot shard's tail collapses; steal on, idle shards execute its ready
// completions.

#ifndef SRC_LOAD_SMP_HARNESS_H_
#define SRC_LOAD_SMP_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/smp.h"
#include "src/hw/fabric.h"
#include "src/hw/nic.h"
#include "src/load/client_fleet.h"
#include "src/load/workload.h"
#include "src/sim/simulation.h"

namespace demi {

struct SmpHarnessConfig {
  int workers = 4;
  std::size_t connections = 256;
  std::size_t client_stacks = 8;
  WorkloadConfig workload;  // echo or KV; defines request/response sizes
  TcpConfig tcp;            // both sides; listen_backlog raised to >= 4096
  // Per-request service time charged on the executing worker core.
  TimeNs server_request_cpu_ns = 500;
  // Completion stealing knobs, passed through to SmpConfig.
  bool steal = true;
  std::size_t steal_threshold = 4;
  std::size_t steal_batch = 8;
  std::size_t consume_batch = 16;
  // Zipf-ish exponent over shard index: connection weight 1/(shard+1)^skew.
  // 0 = uniform offered load across shards.
  double shard_skew = 0.0;
  std::size_t ramp_batch = 1024;  // connections opened per ramp wave
  std::uint64_t seed = 1;
};

class SmpHarness final {
 public:
  // Panics, with ClientFleet::ValidateConfig's message, on a fleet the config
  // cannot address.
  explicit SmpHarness(SmpHarnessConfig cfg);
  SmpHarness(const SmpHarness&) = delete;
  SmpHarness& operator=(const SmpHarness&) = delete;

  Simulation& sim() { return sim_; }
  WorkerPool& pool() { return *pool_; }
  SimNic& server_nic() { return *server_nic_; }
  ClientFleet& fleet() { return *fleet_; }

  // Forwarders for the fleet calls perfbench/perfbench.cc makes; everything else
  // reaches the fleet through fleet().
  bool Ramp() { return fleet_->Ramp(); }
  SweepPoint RunPoint(double offered_rps, TimeNs warmup, TimeNs measure,
                      const std::string& label) {
    return fleet_->RunPoint(offered_rps, warmup, measure, label);
  }
  void StopLoad() { fleet_->StopLoad(); }
  std::size_t established_connections() const { return fleet_->established_connections(); }
  std::uint64_t issued_total() const { return fleet_->issued_total(); }
  std::uint64_t completed_total() const { return fleet_->completed_total(); }

 private:
  SmpHarnessConfig cfg_;
  Simulation sim_;
  Fabric fabric_;

  // Hardware and the fleet last: destroyed first, while the state above is alive.
  std::unique_ptr<HostCpu> server_host_;  // charges the clock: NIC driver work
  std::unique_ptr<SimNic> server_nic_;
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<ClientFleet> fleet_;
};

}  // namespace demi

#endif  // SRC_LOAD_SMP_HARNESS_H_
