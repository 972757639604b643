// Churn-heavy adaptive echo scenario (DESIGN.md §15): a few Zipf-hot flows, a tail
// of cold flows, and waves of short-lived churn connections, all against one server
// host — the workload the load-adaptive path policy exists for.
//
// Topology (one TestHarness, RecoveryEchoRig shape):
//   - server 10.0.0.1: bypass NIC + dedicated kernel NIC; a recovery-enabled Catnip
//     echo server on port 7 (fast path + kernel fallback listener) and a Catnap echo
//     server on port 9 (pure kernel path, the churn/accept-storm target);
//   - client 10.0.0.2 (charges_clock=false): a recovery-enabled Catnip libOS runs
//     the paced hot/cold flows — optionally as a metered tenant so promotions take
//     and demotions release bypass flow slots — and a Catnap libOS dials the churn
//     waves through the legacy kernel.
//
// Hot flows request every `hot_period_ns` (well above the promote threshold), cold
// flows every `cold_period_ns` (below the demote threshold): with the policy on,
// cold flows voluntarily migrate to the kernel path and return their flow slot +
// registration to the tenant pool while hot flows keep bypass latency. Churn waves
// land `churn_wave_size` connects in one backlog, so one fastcall-priced AcceptBatch
// crossing drains the whole wave.
//
// Everything is seeded and virtual-clocked: same config + seed → bit-identical
// result (the `digest` field folds every completion, so tests can assert it).

#ifndef SRC_LOAD_ADAPTIVE_HARNESS_H_
#define SRC_LOAD_ADAPTIVE_HARNESS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/apps/actors.h"
#include "src/common/histogram.h"
#include "src/core/harness.h"
#include "src/core/path_policy.h"

namespace demi {

struct AdaptiveHarnessConfig {
  std::size_t hot_flows = 4;
  std::size_t cold_flows = 8;
  TimeNs hot_period_ns = 20 * kMicrosecond;  // ~50k req/s per hot flow
  TimeNs cold_period_ns = 2 * kMillisecond;  // ~500 req/s per cold flow
  // Churn: every `churn_period_ns`, `churn_wave_size` fresh connections dial the
  // kernel-path echo server, do one round trip, and close — an accept storm.
  std::size_t churn_waves = 16;
  std::size_t churn_wave_size = 8;
  TimeNs churn_period_ns = 2 * kMillisecond;
  std::size_t msg_bytes = 64;
  bool adaptive = false;  // turn the path policy on (client side)
  bool fastcall = false;  // enable the fastcall table on both hosts' kernels
  PathPolicyConfig policy;  // thresholds used when adaptive (enabled is forced on)
  // > 0: the client Catnip runs as a metered tenant with this bypass flow-slot
  // quota, so demotions visibly return capacity (TenantStats::flow_slots_released).
  std::size_t max_flow_slots = 0;
  // > 0: at this instant every cold flow switches to the hot period — the load
  // spike that drives promotions back through the budgeted fast path.
  TimeNs cold_hot_flip_ns = 0;
  TimeNs run_ns = 50 * kMillisecond;
  std::uint64_t seed = 1;
};

struct AdaptiveScenarioResult {
  std::uint64_t hot_p50_ns = 0;
  std::uint64_t hot_p99_ns = 0;
  std::uint64_t cold_p50_ns = 0;
  std::uint64_t cold_p99_ns = 0;
  std::uint64_t hot_completed = 0;
  std::uint64_t cold_completed = 0;
  std::uint64_t churn_completed = 0;
  double churn_conns_per_sec = 0;  // accepted+served+closed churn connections
  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t fastcall_crossings = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t accepts_batched = 0;
  // Tenant pool view at the end of the run (zero unless max_flow_slots > 0).
  std::uint64_t live_flow_slots = 0;
  std::uint64_t flow_slots_released = 0;
  std::uint64_t flow_slots_denied = 0;
  std::uint64_t digest = 0;  // FNV fold of every completion: bit-determinism probe
};

class AdaptiveEchoHarness final : public Poller {
 public:
  explicit AdaptiveEchoHarness(AdaptiveHarnessConfig cfg);
  ~AdaptiveEchoHarness() override;
  AdaptiveEchoHarness(const AdaptiveEchoHarness&) = delete;
  AdaptiveEchoHarness& operator=(const AdaptiveEchoHarness&) = delete;

  // Drives the scenario to completion and reports. Call once.
  AdaptiveScenarioResult Run();

  bool Poll() override;

  TestHarness& harness() { return *h_; }
  TestHarness::Host& server_host() { return *server_host_; }
  TestHarness::Host& client_host() { return *client_host_; }
  CatnipLibOS& client_libos() { return *client_libos_; }

 private:
  struct Flow {
    QDesc qd = kInvalidQDesc;
    QToken connect = kInvalidQToken;
    QToken push = kInvalidQToken;
    QToken pop = kInvalidQToken;
    bool hot = false;
    bool connected = false;
    bool due = false;  // the pacing timer fired while a round was still in flight
    TimeNs period = 0;
    TimeNs sent_at = 0;
    std::uint64_t completed = 0;
  };
  struct ChurnConn {
    QDesc qd = kInvalidQDesc;
    QToken token = kInvalidQToken;  // connect, then push, then pop
    int stage = 0;                  // 0 connect, 1 push, 2 pop
  };

  void ArmFlowTimer(std::size_t i);
  void SendIfReady(std::size_t i);
  void SpawnChurnWave();
  void Mix(std::uint64_t v) { digest_ = (digest_ ^ v) * 1099511628211ULL; }

  AdaptiveHarnessConfig cfg_;
  // Harness declared first so it is destroyed last — every actor below deregisters
  // its poller from the harness's simulation in its destructor.
  std::unique_ptr<TestHarness> h_;
  TestHarness::Host* server_host_ = nullptr;
  TestHarness::Host* client_host_ = nullptr;
  CatnipLibOS* server_libos_ = nullptr;   // recovery echo server, port 7
  CatnipLibOS* client_libos_ = nullptr;   // paced hot/cold flows
  CatnapLibOS* churn_server_libos_ = nullptr;  // kernel-path echo server, port 9
  CatnapLibOS* churn_client_libos_ = nullptr;  // churn dialer
  std::unique_ptr<DemiServer> echo_server_;
  std::unique_ptr<DemiServer> churn_echo_server_;

  std::vector<Flow> flows_;
  std::vector<ChurnConn> churn_;
  std::size_t churn_waves_spawned_ = 0;
  std::uint64_t churn_completed_ = 0;
  bool stopping_ = false;
  Histogram hot_latency_;
  Histogram cold_latency_;
  std::uint64_t digest_ = 1469598103934665603ULL;  // FNV-1a offset basis
};

}  // namespace demi

#endif  // SRC_LOAD_ADAPTIVE_HARNESS_H_
