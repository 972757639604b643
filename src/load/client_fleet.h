// Open-loop client fleet: 10^2..10^6 concurrent TCP connections driven entirely by
// arrival timers and TCP ready callbacks. The load harnesses (OpenLoopRunner's raw
// NetStack server, SmpHarness's RSS-sharded WorkerPool) each build their server and
// then one ClientFleet against it; everything client-side lives here.
//
// Topology: `client_stacks` load-generator hosts on the owner's fabric, each with
// its own NIC + NetStack, marked charges_clock=false so generator CPU can never
// throttle offered load or perturb server timing. Stack s has IP 10.0.1.(s+1) and
// MAC ForHost(10 + s), so at most kMaxClientStacks stacks fit.
//
// Connection capacity: each client stack owns a 2048-port ephemeral partition and
// ports are free per 4-tuple, so capacity = client_stacks * server_ports * 2048.
// Connection i maps to stack i % client_stacks and server port
// server_base_port + (i / client_stacks) % server_ports.
//
// Wire protocol (src/load/workload.h carried over §5.2 Demikernel framing): each
// request goes out as the EncodeFrame parts of one element whose first 4 payload
// bytes name the response length; each response is one framed element of that
// length, so the client counts 4 + response_bytes bytes per response off the
// stream. Bytes with no outstanding request are counted as stray, never dropped.
//
// Event-driven, not polled: at a million connections any per-connection poll loop
// is O(N) per step and dominates the run. Clients react to TcpConnection ready
// callbacks and arrivals are timer-wheel entries.
//
// Intended-send-time accounting (coordinated-omission-free): a request's latency is
// measured from the instant its arrival timer was due — NOT from when the bytes
// made it into the socket, which under overload can be much later (the request
// waits in an application backlog while the send buffer is full).
//
// Arrivals: connection i's rate is current_rps * w_i / W, where w_i =
// 1/(shard_i+1)^shard_skew, shard_i is the RSS queue its 4-tuple hashes to on a
// `shards`-queue server NIC (SimNic::RssForFlow), and W sums w over the fleet.
// Skew concentrates load on shard 0's connections while the aggregate offered rate
// stays fixed; skew 0 splits it evenly. Gaps are exponential (at least 1 ns) and
// drawn from the previous *scheduled* arrival.
//
// A sweep point (RunPoint) retargets the aggregate rate: every pending arrival
// timer is cancelled and redrawn at the new rate (valid because exponential gaps
// are memoryless — and a deliberate million-entry cancel/schedule storm on the
// timer wheel), runs a warmup, then records completions into the named histogram
// "openloop/<label>/<rate>rps/latency_ns" for the measurement window.
//
// Optional stressors, all seeded and deterministic:
//   - churn: an exponential clock closes a random established connection; the
//     replacement reconnects (exercising 4-tuple port reuse and TIME_WAIT);
//   - incast: every `incast_period_ns`, `incast_fanin` connections fire a request
//     at the same instant (fan-in microburst);
//   - slow clients: a fraction of connections delay draining responses, filling
//     their receive windows and backpressuring the server;
//   - MMPP arrivals: on/off bursty load with a global phase flip that redraws every
//     arrival timer (see arrival.h).

#ifndef SRC_LOAD_CLIENT_FLEET_H_
#define SRC_LOAD_CLIENT_FLEET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/fifo.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/hw/fabric.h"
#include "src/hw/nic.h"
#include "src/load/arrival.h"
#include "src/load/workload.h"
#include "src/net/stack.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"

namespace demi {

struct ClientFleetConfig {
  std::size_t connections = 0;
  std::size_t client_stacks = 8;
  Ipv4Address server_ip;
  std::uint16_t server_base_port = 0;
  std::size_t server_ports = 1;
  int shards = 1;           // RSS queues on the server NIC
  double shard_skew = 0.0;  // connection weight 1/(shard+1)^skew
  WorkloadConfig workload;
  ArrivalConfig arrival;
  TcpConfig tcp;
  // Stressors (0 disables each).
  double churn_per_sec = 0.0;
  double slow_client_fraction = 0.0;
  TimeNs slow_drain_delay_ns = 1 * kMillisecond;
  std::size_t incast_fanin = 0;
  TimeNs incast_period_ns = 10 * kMillisecond;
  std::size_t ramp_batch = 1024;  // connections opened per ramp wave
  std::uint64_t seed = 1;
};

// One measured point of an offered-load sweep.
struct SweepPoint {
  double offered_rps = 0;
  double achieved_rps = 0;
  std::uint64_t issued = 0;     // arrival-timer firings inside the window
  std::uint64_t completed = 0;  // responses fully delivered inside the window
  HistogramStats latency;       // completion time minus intended send time
  std::string histogram_name;   // where the full histogram lives in the registry
};

// Sends `parts` in order on `tc`; the first part the send buffer rejects and every
// part after it wait in `backlog`, behind anything already there.
void SendOrQueue(TcpConnection& tc, Fifo<Buffer>& backlog, std::vector<Buffer> parts);
// Moves backlogged parts into the send buffer until it is full again.
void FlushBacklog(TcpConnection& tc, Fifo<Buffer>& backlog);

class ClientFleet final {
 public:
  // Ephemeral ports each client stack may use per server port (per-4-tuple reuse).
  static constexpr std::size_t kEphemeralPartition = 2048;
  // Stack s is 10.0.1.(s+1): the last octet runs out after 254 stacks.
  static constexpr std::size_t kMaxClientStacks = 254;
  // Closed connections a stack may hold before ReapClosed sweeps it. A sweep is
  // O(live), so at 10^6 connections reaping every handful of deaths would be
  // quadratic; this threshold amortizes it.
  static constexpr std::size_t kReapThreshold = 65'536;

  // Returns kInvalidArgument, with the offending numbers in the message, when a
  // count is zero, `client_stacks` exceeds kMaxClientStacks, or `connections`
  // exceeds the 4-tuple capacity. The constructor panics on the same configs.
  static Status ValidateConfig(const ClientFleetConfig& cfg);

  // Builds the client hosts, NICs and stacks on `fabric`. `server_accepted` counts
  // the connections the server has accepted; Ramp waits for it to catch up.
  ClientFleet(Simulation* sim, Fabric* fabric, ClientFleetConfig cfg,
              std::function<std::uint64_t()> server_accepted);
  ~ClientFleet();
  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  // Opens all connections in paced waves and runs the simulation until every one
  // is established and accepted. Returns false if that does not happen within
  // `deadline` of simulated time.
  bool Ramp(TimeNs deadline = 120 * kSecond);

  // One sweep point: retarget the rate, warm up, measure. Callable repeatedly with
  // increasing rates to trace a throughput-vs-tail-latency curve.
  SweepPoint RunPoint(double offered_rps, TimeNs warmup, TimeNs measure,
                      const std::string& label = "run");

  // Stops all load (arrival/churn/incast/phase timers). RunPoint calls this first.
  void StopLoad();

  // Sweeps client stacks holding more than kReapThreshold closed connections.
  // Call from a top-level context (a Poller), never from a TCP callback.
  bool ReapClosed();

  std::size_t established_connections() const { return established_; }
  std::uint64_t issued_total() const { return issued_total_; }
  std::uint64_t completed_total() const { return completed_total_; }
  std::uint64_t churn_initiated() const { return churn_initiated_; }
  std::uint64_t churn_completed() const { return churn_cycles_; }
  std::uint64_t unexpected_deaths() const { return dead_unexpected_; }
  std::uint64_t lost_in_flight() const { return lost_in_flight_; }
  std::uint64_t phase_flips() const { return phase_flips_; }
  std::uint64_t stray_response_bytes() const { return stray_bytes_; }
  // Connections whose flows hash to `shard` (a churn reconnect moves its count).
  std::size_t shard_connections(int shard) const;
  SimNic& client_nic(std::size_t i) { return *client_nics_[i]; }

  // Test hook: observe every completion as (intended send time, completion time).
  using CompletionProbe = std::function<void(TimeNs intended, TimeNs completed)>;
  void set_completion_probe(CompletionProbe probe) { probe_ = std::move(probe); }

 private:
  struct Pending {
    TimeNs intended;
    std::uint32_t resp_remaining;  // framed response bytes still to arrive
  };
  struct LoadConn {
    TcpConnection* tcp = nullptr;
    int shard = 0;
    bool established = false;
    bool dead = false;
    bool closing = false;  // churn close in flight; guards against double-close
    bool slow = false;
    bool drain_scheduled = false;
    TimerId arrival = kInvalidTimer;
    Fifo<Pending> pending;  // outstanding requests, oldest first
    Fifo<Buffer> backlog;   // wire parts the send buffer rejected
  };

  void OpenConnection(std::size_t i);
  void OnClientReady(std::size_t i);
  void OnClientDead(std::size_t i);
  void DrainClient(std::size_t i);
  void CompleteRequest(TimeNs intended);
  void IssueRequest(std::size_t i, TimeNs intended);
  void ScheduleArrival(std::size_t i);
  void ArmArrival(std::size_t i, TimeNs due);
  TimeNs NextGap(const LoadConn& c);
  void RedrawAllArrivals();
  void ScheduleChurn();
  void ChurnTick();
  void ArmIncast(TimeNs due);
  void SchedulePhaseFlip();
  void CancelTimer(TimerId& id);

  Simulation* sim_;
  ClientFleetConfig cfg_;
  std::function<std::uint64_t()> server_accepted_;
  WorkloadModel workload_;
  ArrivalProcess arrival_;
  Rng rng_;

  // Load state (declared before the stacks so callbacks into it stay valid while
  // the stacks destruct; NetStack clears connection callbacks in its dtor anyway).
  std::vector<LoadConn> conns_;
  std::vector<double> shard_weight_;      // 1/(shard+1)^shard_skew
  std::vector<std::size_t> shard_conns_;  // connections per shard
  double total_weight_ = 0;               // Σ shard_weight_ over connections
  bool point_active_ = false;
  bool measuring_ = false;
  Histogram* hist_ = nullptr;
  CompletionProbe probe_;
  TimerId churn_timer_ = kInvalidTimer;
  TimerId incast_timer_ = kInvalidTimer;
  TimerId phase_timer_ = kInvalidTimer;
  std::size_t incast_cursor_ = 0;

  std::size_t established_ = 0;
  std::uint64_t issued_total_ = 0;
  std::uint64_t issued_window_ = 0;
  std::uint64_t completed_total_ = 0;
  std::uint64_t completed_window_ = 0;
  std::uint64_t churn_initiated_ = 0;
  std::uint64_t churn_cycles_ = 0;
  std::uint64_t dead_unexpected_ = 0;
  std::uint64_t lost_in_flight_ = 0;
  std::uint64_t phase_flips_ = 0;
  std::uint64_t stray_bytes_ = 0;

  // Hardware and stacks last: destroyed first, while the state above is alive.
  std::vector<std::unique_ptr<HostCpu>> client_hosts_;
  std::vector<std::unique_ptr<SimNic>> client_nics_;
  std::vector<std::unique_ptr<NetStack>> client_stacks_;
};

}  // namespace demi

#endif  // SRC_LOAD_CLIENT_FLEET_H_
