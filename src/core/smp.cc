#include "src/core/smp.h"

#include <cstring>

#include "src/common/logging.h"
#include "src/net/framing.h"
#include "src/sim/counters.h"

namespace demi {

namespace {

// The response-length header may straddle sga segments after reassembly.
std::uint32_t ResponseBytes(const SgArray& sga) {
  std::uint8_t hdr[kResponseHeaderBytes] = {};
  std::size_t got = 0;
  for (const Buffer& seg : sga) {
    const auto bytes = seg.span();
    for (std::size_t i = 0; i < bytes.size() && got < kResponseHeaderBytes; ++i) {
      hdr[got++] = std::to_integer<std::uint8_t>(bytes[i]);
    }
    if (got == kResponseHeaderBytes) {
      break;
    }
  }
  return DecodeResponseBytes(hdr);
}

}  // namespace

SmpWorker::SmpWorker(WorkerPool* pool, Simulation* sim, SimNic* nic, int index,
                     const SmpConfig& cfg)
    : pool_(pool),
      cfg_(cfg),
      index_(index),
      cpu_(sim, "worker" + std::to_string(index), /*charges_clock=*/true,
           /*core=*/index + 1) {
  // Everything this worker registers (its own poller, the libOS, the NetStack)
  // homes on core index+1; construction itself runs in the core-0 context.
  HomeCoreScope scope(*sim, index_ + 1);
  CatnipConfig ccfg;
  ccfg.ip = cfg_.ip;
  ccfg.tcp = cfg_.tcp;
  ccfg.seed = cfg_.seed ^ (0x517e0000ull + static_cast<std::uint64_t>(index));
  ccfg.nic_queue = index_;
  ccfg.rss_steering = true;  // N listeners on one port: the hash is the demux
  ccfg.rx_batch = cfg_.rx_batch;
  libos_ = std::make_unique<CatnipLibOS>(&cpu_, nic, /*control_kernel=*/nullptr,
                                         std::move(ccfg));
  // Sharded workers hold one mostly-idle connection per client: poll the dirty
  // set, not the whole shard.
  libos_->EnableSparsePolling();
  // Re-arm the next pop the moment a pop DELIVERS, not when the app gets around
  // to handling it. With handling-time re-arm, ring production is coupled 1:1 to
  // consumption and an overloaded shard's backlog hides in transport receive
  // buffers where ready_size() — the steal-victim load signal — cannot see it.
  // Delivery-time re-arm drains that backlog into the ready ring, which is the
  // completion queue ZygOS-style thieves actually steal from. Failed pops do not
  // re-arm: the terminal completion rides the ring and its consumer closes the
  // queue, so a dead device or peer never leaves an armed pop behind.
  libos_->set_ready_observer([this](QToken, QDesc qd, OpType op, bool ok) {
    if (op == OpType::kPop && ok) {
      (void)libos_->Pop(qd);
    }
    PublishOverload(*this);
  });
  response_blob_ = Buffer::Allocate(kMaxResponseBytes);
  std::memset(response_blob_.mutable_data(), 0, response_blob_.size());
  sim->AddPollerOn(index_ + 1, this);

  auto qd = libos_->Socket();
  DEMI_CHECK(qd.ok());
  listen_qd_ = *qd;
  DEMI_CHECK(libos_->Bind(listen_qd_, cfg_.port).ok());
  DEMI_CHECK(libos_->Listen(listen_qd_).ok());
  ArmAccept();
}

SmpWorker::~SmpWorker() { cpu_.sim().RemovePoller(this); }

void SmpWorker::ArmAccept() {
  auto token = libos_->AcceptAsync(listen_qd_);
  if (!token.ok()) {
    accept_token_ = kInvalidQToken;
    return;
  }
  accept_token_ = *token;
  (void)libos_->WatchToken(accept_token_, this);
}

void SmpWorker::OnTokenComplete(QToken token, QDesc qd) {
  (void)qd;
  watched_done_.push_back(token);
}

bool SmpWorker::HandleWatched(QToken token) {
  auto r = libos_->TakeResultInternal(token);
  if (!r.ok()) {
    return false;  // claimed elsewhere or still pending (should not happen)
  }
  if (r->op == OpType::kAccept) {
    if (token == accept_token_) {
      accept_token_ = kInvalidQToken;
    }
    if (r->status.ok()) {
      ++accepted_;
      // Arm the connection's first pop; every later one is re-armed at delivery
      // time by the ready observer. Completions (requests) land in the ready
      // ring where home worker and thieves alike can claim them.
      auto pop = libos_->Pop(r->new_qd);
      if (!pop.ok()) {
        (void)libos_->Close(r->new_qd);
      }
      ArmAccept();
    } else if (r->status.code() != ErrorCode::kDeviceFailed) {
      ArmAccept();  // transient accept failure; a dead device ends accepting
    }
    return true;
  }
  // Push acknowledgments need no action. A failed push means the connection died;
  // the outstanding pop surfaces the terminal error and closes the queue, so the
  // qd is not torn down here while that pop is still registered.
  return true;
}

void SmpWorker::HandleCompletion(ReadyCompletion& rc, SmpWorker* owner) {
  // Exactly-one-wakeup: the consumer that claimed the completion accounts it.
  cpu_.Count(Counter::kWakeups);
  if (rc.op != OpType::kPop) {
    return;  // only pops route through the ring in this pool
  }
  LibOS& owner_libos = *owner->libos_;
  if (!rc.result.status.ok()) {
    // EOF / reset / device death: retire the connection on its home shard.
    (void)owner_libos.Close(rc.qd);
    return;
  }
  const std::uint32_t resp_bytes = ResponseBytes(rc.result.sga);
  cpu_.Work(cfg_.request_cpu_ns);  // app service time, on the executing core
  ++served_;
  if (owner != this) {
    ++stolen_executed_;
  }
  // Egress goes home: the connection and its NIC queue belong to the owner shard.
  // The next pop is already armed (re-armed at delivery time by the ready
  // observer), so handling a request is push-only — thieves included.
  auto push = owner_libos.Push(rc.qd, owner->ResponseSga(resp_bytes));
  if (push.ok()) {
    (void)owner_libos.WatchToken(*push, owner);
  }
}

SgArray SmpWorker::ResponseSga(std::uint32_t bytes) {
  return SgArray(response_blob_.Slice(0, bytes));
}

void SmpWorker::PublishOverload(SmpWorker& writer) {
  if (!pool_->stealing_) {
    return;
  }
  const std::uint64_t bit = std::uint64_t{1} << index_;
  const bool overloaded = libos_->ready_size() >= cfg_.steal_threshold;
  if (((pool_->overload_word_ & bit) != 0) == overloaded) {
    return;  // no store, no coherence traffic
  }
  pool_->overload_word_ ^= bit;
  writer.cpu_.Work(writer.cpu_.cost().cacheline_transfer_ns);
  writer.seen_version_ = ++pool_->overload_version_;
}

bool SmpWorker::TrySteal() {
  const std::uint64_t word = pool_->overload_word_ & ~(std::uint64_t{1} << index_);
  if (word == 0 && seen_version_ == pool_->overload_version_) {
    return false;  // nothing stored since our last read: a local cache hit, free
  }
  // Fetching the word's line after a store (or to act on a set bit) is one
  // cross-core read.
  const CostModel& cost = cpu_.cost();
  cpu_.Work(cost.steal_probe_ns);
  seen_version_ = pool_->overload_version_;
  // Victims in ring order after ourselves, so thieves fan out across overloaded
  // peers rather than all piling onto the lowest-numbered one.
  const int n = pool_->size();
  for (int k = 1; k < n; ++k) {
    const int v = (index_ + k) % n;
    if ((word & (std::uint64_t{1} << v)) == 0) {
      continue;
    }
    SmpWorker& victim = pool_->worker(v);
    // Reading the victim's ready-ring head/tail is a cross-core cache probe.
    cpu_.Work(cost.steal_probe_ns);
    cpu_.Count(Counter::kStealAttempts);
    // One cross-core kick per batch: the victim's next poll sees its rings and
    // dirty lists mutated under it and must resynchronize.
    cpu_.Work(cost.ipi_wakeup_ns);
    std::size_t moved = 0;
    ReadyCompletion rc;
    while (moved < cfg_.steal_batch && victim.libos_->PopReady(&rc)) {
      // The completion record and its op slot migrate to this core's cache.
      cpu_.Work(cost.cacheline_transfer_ns);
      cpu_.Count(Counter::kCompletionsStolen);
      HandleCompletion(rc, &victim);
      ++moved;
    }
    // Draining the victim below the threshold clears its bit; the thief that
    // caused the flip pays for the store.
    victim.PublishOverload(*this);
    if (moved > 0) {
      return true;
    }
    cpu_.Count(Counter::kStealAborts);  // the ring held only stale hints
  }
  return false;
}

bool SmpWorker::Poll() {
  bool progress = false;
  if (accept_token_ != kInvalidQToken && libos_->stack().device_failed()) {
    // A dead bypass NIC can never deliver another connection; retire the armed
    // accept so no qtoken outlives the device (the no-hung-qtoken invariant).
    (void)libos_->CancelOp(accept_token_);
    accept_token_ = kInvalidQToken;
    progress = true;
  }
  if (!watched_done_.empty()) {
    watched_scratch_.swap(watched_done_);
    for (const QToken token : watched_scratch_) {
      progress |= HandleWatched(token);
    }
    watched_scratch_.clear();
  }
  std::size_t handled = 0;
  ReadyCompletion rc;
  while (handled < cfg_.consume_batch && libos_->PopReady(&rc)) {
    HandleCompletion(rc, this);
    ++handled;
    progress = true;
  }
  PublishOverload(*this);
  if (pool_->stealing_ && handled == 0) {
    progress |= TrySteal();
  }
  return progress;
}

WorkerPool::WorkerPool(Simulation* sim, SimNic* nic, SmpConfig cfg)
    : cfg_(std::move(cfg)), stealing_(cfg_.steal && cfg_.workers > 1) {
  DEMI_CHECK(cfg_.workers >= 1);
  DEMI_CHECK(cfg_.workers <= 64 && "one overload-word bit per worker");
  DEMI_CHECK(nic->config().num_queues >= cfg_.workers &&
             "one NIC queue pair per sharded worker");
  sim->ConfigureCores(cfg_.workers + 1);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    workers_.push_back(std::make_unique<SmpWorker>(this, sim, nic, w, cfg_));
  }
}

std::uint64_t WorkerPool::total_served() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) {
    n += w->served_;
  }
  return n;
}

std::uint64_t WorkerPool::total_stolen() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) {
    n += w->stolen_executed_;
  }
  return n;
}

std::uint64_t WorkerPool::total_accepted() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) {
    n += w->accepted_;
  }
  return n;
}

std::size_t WorkerPool::total_pending_ops() const {
  std::size_t n = 0;
  for (const auto& w : workers_) {
    n += w->libos_->pending_ops();
  }
  return n;
}

}  // namespace demi
