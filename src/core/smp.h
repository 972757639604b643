// Multi-core scale-out: RSS-sharded libOS workers with ZygOS-style completion
// stealing (DESIGN.md §13).
//
// WorkerPool builds N shared-nothing workers on one host. Worker w is pinned to
// simulation core w+1 (core 0 stays the driver/client context), owns NIC queue pair
// w, and runs its own kernel-less Catnip libOS — its own NetStack, flow table,
// connection shard, header arena, and op-slot pool. Every worker listens on the
// same port; the NIC's RSS hash (not ntuple steering) decides which shard a flow
// lands on, so no two workers ever touch the same connection state.
//
// The load-balancing hole in pure RSS sharding is skew: a hot shard's tail latency
// collapses while its neighbours idle. The fix is ZygOS-style work stealing at the
// *completion* layer: a worker that finds its own ready ring empty executes ready
// completions (popped requests) for an overloaded peer. Which peers are worth
// probing is published in one pool-wide overload word — one bit per worker, set
// while its ready ring holds >= steal_threshold completions — so an idle thief
// reads one word instead of blind-probing every peer (the Linux root-domain
// `overload` flag). Cross-core costs come from the cost model: steal_probe_ns per
// read of a non-empty or changed word and per probed victim, cacheline_transfer_ns
// per bit flip and per migrated completion, ipi_wakeup_ns per steal batch.
// Claiming a completion releases its qtoken (LibOS::PopReady), so exactly one
// consumer ever handles it and a stale token is rejected with kBadDescriptor.
// Responses are pushed back through the *owner's* libOS: the connection, its
// buffers, and its NIC queue stay home, preserving per-flow ordering exactly as
// ZygOS returns stolen work to its home flow group for egress.

#ifndef SRC_CORE_SMP_H_
#define SRC_CORE_SMP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/catnip.h"
#include "src/core/libos.h"
#include "src/hw/nic.h"
#include "src/net/packet.h"
#include "src/sim/simulation.h"

namespace demi {

struct SmpConfig {
  // One shard per worker: worker w runs on sim core w+1 and drives NIC queue w.
  // The NIC must be configured with at least this many queues. At most 64: each
  // worker owns one bit of the pool's 64-bit overload word.
  int workers = 1;
  std::uint16_t port = 7;  // every worker listens here; RSS spreads the flows
  Ipv4Address ip;
  TcpConfig tcp;
  std::uint64_t seed = 31;
  // Application service time charged on whichever core executes the request (the
  // thief's core for stolen completions — that is the point of stealing).
  TimeNs request_cpu_ns = 500;
  // Completion stealing (ZygOS). Off = pure RSS sharding, the skew baseline.
  bool steal = true;
  std::size_t steal_threshold = 4;  // victim ready-ring depth that justifies a steal
  std::size_t steal_batch = 8;      // max completions moved per successful steal
  // Max completions a worker consumes from its own ring per poll — bounded so a
  // flooded worker's backlog stays visible to thieves between its bubbles instead
  // of draining whole in one.
  std::size_t consume_batch = 16;
  // RX frames the worker's stack ingests per poll. Must comfortably exceed
  // consume_batch in wire frames (a request is typically 2 frames: header part
  // + payload part) or ingest and consumption lock in balance and an overloaded
  // shard's queue hides in the NIC ring where thieves cannot see it.
  std::size_t rx_batch = 128;
};

class WorkerPool;

// One sharded worker: Catnip libOS + request loop on a dedicated core.
class SmpWorker final : public Poller, public CompletionWatcher {
 public:
  SmpWorker(WorkerPool* pool, Simulation* sim, SimNic* nic, int index,
            const SmpConfig& cfg);
  ~SmpWorker() override;
  SmpWorker(const SmpWorker&) = delete;
  SmpWorker& operator=(const SmpWorker&) = delete;

  // Worker loop, polled on core index()+1: dispatch deferred watched completions
  // (accepts, push acks), consume up to consume_batch own ready completions, then
  // steal from peers if idle.
  bool Poll() override;
  // Watched-token delivery (fires inside the libOS poll); deferred to our own Poll
  // so completion handling never re-enters libOS machinery mid-poll.
  void OnTokenComplete(QToken token, QDesc qd) override;

  int index() const { return index_; }
  CatnipLibOS& libos() { return *libos_; }
  HostCpu& cpu() { return cpu_; }
  std::uint64_t requests_served() const { return served_; }
  // Completions this worker claimed from a peer's ring (thief-side count).
  std::uint64_t completions_stolen() const { return stolen_executed_; }
  std::uint64_t accepted() const { return accepted_; }

 private:
  friend class WorkerPool;

  void ArmAccept();
  bool HandleWatched(QToken token);
  // Re-derives this worker's overload bit from its ready-ring depth; called
  // wherever the depth changes. Flipping the bit is a store to the shared word
  // that invalidates every thief's copy, so `writer` — the core that changed the
  // depth — pays cacheline_transfer_ns and now holds the line.
  void PublishOverload(SmpWorker& writer);
  // Executes one claimed completion on THIS core for `owner`'s shard (owner ==
  // this for home work, a peer for stolen work).
  void HandleCompletion(ReadyCompletion& rc, SmpWorker* owner);
  bool TrySteal();
  SgArray ResponseSga(std::uint32_t bytes);

  WorkerPool* pool_;
  const SmpConfig& cfg_;  // owned by the pool, which outlives every worker
  int index_;
  HostCpu cpu_;
  std::unique_ptr<CatnipLibOS> libos_;
  QDesc listen_qd_ = kInvalidQDesc;
  QToken accept_token_ = kInvalidQToken;
  Buffer response_blob_;  // shared storage for every response payload (zero alloc)
  std::vector<QToken> watched_done_;  // deferred watched completions
  std::vector<QToken> watched_scratch_;
  // WorkerPool::overload_version_ when this worker last read or wrote the word:
  // while they match, its cached copy is current and re-reading it is free.
  std::uint64_t seen_version_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t stolen_executed_ = 0;
  std::uint64_t accepted_ = 0;
};

class WorkerPool {
 public:
  // Configures the simulation for workers+1 cores and builds every worker. The NIC
  // is the (already multi-queue) bypass device all shards share.
  WorkerPool(Simulation* sim, SimNic* nic, SmpConfig cfg);

  int size() const { return static_cast<int>(workers_.size()); }
  SmpWorker& worker(int i) { return *workers_[i]; }
  const SmpConfig& config() const { return cfg_; }

  std::uint64_t total_served() const;
  std::uint64_t total_stolen() const;
  std::uint64_t total_accepted() const;
  // Sum of pending qtokens across every worker libOS — 0 after a full drain is the
  // no-hung-qtoken invariant under stealing and NIC death alike.
  std::size_t total_pending_ops() const;
  // Bit w is set while worker w's ready ring holds >= steal_threshold
  // completions. Always 0 unless stealing is on with more than one worker.
  std::uint64_t overload_word() const { return overload_word_; }

 private:
  friend class SmpWorker;

  SmpConfig cfg_;
  bool stealing_;  // steal on and > 1 worker: only then is the word maintained
  std::uint64_t overload_word_ = 0;
  std::uint64_t overload_version_ = 0;  // bumped on every bit flip (every store)
  std::vector<std::unique_ptr<SmpWorker>> workers_;
};

}  // namespace demi

#endif  // SRC_CORE_SMP_H_
