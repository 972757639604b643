#include "src/load/client_fleet.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/logging.h"
#include "src/net/framing.h"

namespace demi {

namespace {

// Every request and response is one framed element: a 4-byte length, then the body.
constexpr std::uint32_t kFrameHeaderBytes = 4;
// NextGap's answer when the offered load is zero: no arrival at all.
constexpr TimeNs kNever = -1;

}  // namespace

void SendOrQueue(TcpConnection& tc, Fifo<Buffer>& backlog, std::vector<Buffer> parts) {
  std::size_t sent = 0;
  if (backlog.empty()) {
    while (sent < parts.size() && tc.Send(parts[sent]).ok()) {
      ++sent;
    }
  }
  for (; sent < parts.size(); ++sent) {
    backlog.push_back(std::move(parts[sent]));
  }
}

void FlushBacklog(TcpConnection& tc, Fifo<Buffer>& backlog) {
  while (!backlog.empty() && tc.Send(backlog.front()).ok()) {
    backlog.pop_front();
  }
}

Status ClientFleet::ValidateConfig(const ClientFleetConfig& cfg) {
  if (cfg.connections == 0) {
    return InvalidArgument("client fleet: connections must be > 0");
  }
  if (cfg.client_stacks == 0 || cfg.server_ports == 0) {
    return InvalidArgument("client fleet: client_stacks and server_ports must be > 0");
  }
  char msg[192];
  if (cfg.client_stacks > kMaxClientStacks) {
    std::snprintf(msg, sizeof(msg),
                  "client fleet: %zu client stacks exceed the %zu addresses of "
                  "10.0.1.0/24",
                  cfg.client_stacks, kMaxClientStacks);
    return InvalidArgument(msg);
  }
  // Each (client stack, server port) pair supports one ephemeral partition of
  // connections thanks to per-4-tuple port reuse.
  const std::size_t capacity = cfg.client_stacks * cfg.server_ports * kEphemeralPartition;
  if (cfg.connections > capacity) {
    std::snprintf(msg, sizeof(msg),
                  "client fleet: %zu connections exceed 4-tuple capacity %zu "
                  "(%zu client stacks x %zu server ports x %zu ephemeral ports)",
                  cfg.connections, capacity, cfg.client_stacks, cfg.server_ports,
                  kEphemeralPartition);
    return InvalidArgument(msg);
  }
  return OkStatus();
}

ClientFleet::ClientFleet(Simulation* sim, Fabric* fabric, ClientFleetConfig cfg,
                         std::function<std::uint64_t()> server_accepted)
    : sim_(sim),
      cfg_(cfg),
      server_accepted_(std::move(server_accepted)),
      workload_(cfg.workload),
      arrival_(cfg.arrival),
      rng_(MixSeed(cfg.seed, 0x50ad)) {
  if (const Status valid = ValidateConfig(cfg_); !valid.ok()) {
    PanicImpl(__FILE__, __LINE__, valid.message());
  }
  DEMI_CHECK(cfg_.shards >= 1);

  NicConfig nic_cfg;
  nic_cfg.ring_size = 4096;  // ramp waves and incast bursts exceed the 256 default
  client_hosts_.reserve(cfg_.client_stacks);
  client_nics_.reserve(cfg_.client_stacks);
  client_stacks_.reserve(cfg_.client_stacks);
  for (std::size_t s = 0; s < cfg_.client_stacks; ++s) {
    client_hosts_.push_back(std::make_unique<HostCpu>(
        sim_, "loadgen" + std::to_string(s), /*charges_clock=*/false));
    client_nics_.push_back(std::make_unique<SimNic>(
        client_hosts_.back().get(), fabric,
        MacAddress::ForHost(static_cast<std::uint32_t>(10 + s)), nic_cfg));
    NetStackConfig ccfg;
    ccfg.ip = Ipv4Address::FromOctets(10, 0, 1, static_cast<std::uint8_t>(s + 1));
    ccfg.rx_batch = 256;
    ccfg.tcp = cfg_.tcp;
    ccfg.seed = MixSeed(cfg_.seed, 0xc11e + s);
    client_stacks_.push_back(std::make_unique<NetStack>(
        client_hosts_.back().get(), client_nics_.back().get(), ccfg));
  }

  conns_.resize(cfg_.connections);
  shard_conns_.assign(static_cast<std::size_t>(cfg_.shards), 0);
  for (int s = 0; s < cfg_.shards; ++s) {
    shard_weight_.push_back(std::pow(1.0 / static_cast<double>(s + 1), cfg_.shard_skew));
  }
}

ClientFleet::~ClientFleet() { StopLoad(); }

std::size_t ClientFleet::shard_connections(int shard) const {
  return shard_conns_.at(static_cast<std::size_t>(shard));
}

// ---------------------------------------------------------------------------
// Connection lifecycle
// ---------------------------------------------------------------------------

void ClientFleet::OpenConnection(std::size_t i) {
  LoadConn& c = conns_[i];
  c = LoadConn{};
  const std::size_t s = i % cfg_.client_stacks;
  const std::uint16_t dport = static_cast<std::uint16_t>(
      cfg_.server_base_port + (i / cfg_.client_stacks) % cfg_.server_ports);
  // Deterministic slow-client assignment: the same connection indices are slow in
  // every run with the same config.
  c.slow = cfg_.slow_client_fraction > 0 &&
           static_cast<double>(i % 1024) < cfg_.slow_client_fraction * 1024.0;
  const Endpoint server{cfg_.server_ip, dport};
  auto r = client_stacks_[s]->TcpConnect(server);
  DEMI_CHECK(r.ok());
  c.tcp = r.value();
  // The flow's shard is fixed by its 4-tuple the moment the local port is
  // allocated: compute it the way the server NIC will hash the SYN.
  const Endpoint local = c.tcp->local();
  c.shard = SimNic::RssForFlow(local.ip.addr, server.ip.addr, local.port, server.port,
                               cfg_.shards);
  ++shard_conns_[static_cast<std::size_t>(c.shard)];
  c.tcp->set_on_ready([this, i](TcpConnection*) { OnClientReady(i); });
}

void ClientFleet::OnClientReady(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr) {
    return;
  }
  if (c.tcp->dead()) {
    OnClientDead(i);
    return;
  }
  if (!c.established && c.tcp->established()) {
    c.established = true;
    ++established_;
    if (point_active_) {
      ScheduleArrival(i);
    }
  }
  if (c.tcp->readable()) {
    if (c.slow) {
      // Slow client: sit on delivered data for a while, keeping the receive
      // window pinched and backpressuring the server's send side.
      if (!c.drain_scheduled) {
        c.drain_scheduled = true;
        sim_->Schedule(cfg_.slow_drain_delay_ns, [this, i] {
          conns_[i].drain_scheduled = false;
          DrainClient(i);
        });
      }
    } else {
      DrainClient(i);
    }
  }
  FlushBacklog(*c.tcp, c.backlog);
}

void ClientFleet::OnClientDead(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.dead) {
    return;
  }
  c.dead = true;
  c.tcp = nullptr;
  CancelTimer(c.arrival);
  lost_in_flight_ += c.pending.size();
  c.pending.clear();
  c.backlog.clear();
  if (c.established) {
    c.established = false;
    --established_;
  }
  if (c.closing) {
    ++churn_cycles_;
    // Reconnect from a clean top-level context: the death callback runs inside
    // segment/timer processing where TcpConnect must not reenter the stack. The
    // replacement may hash to another shard.
    --shard_conns_[static_cast<std::size_t>(c.shard)];
    sim_->Schedule(0, [this, i] { OpenConnection(i); });
  } else {
    ++dead_unexpected_;
  }
}

void ClientFleet::DrainClient(std::size_t i) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr || c.tcp->dead()) {
    return;
  }
  while (true) {
    Buffer got = c.tcp->Recv(1 << 20);
    if (got.empty()) {
      break;
    }
    std::size_t n = got.size();
    while (n > 0 && !c.pending.empty()) {
      Pending& p = c.pending.front();
      const std::uint32_t take =
          static_cast<std::uint32_t>(std::min<std::size_t>(n, p.resp_remaining));
      p.resp_remaining -= take;
      n -= take;
      if (p.resp_remaining == 0) {
        const TimeNs intended = p.intended;
        c.pending.pop_front();
        CompleteRequest(intended);
      }
    }
    // Bytes with no matching pending request (e.g. a response racing a churn
    // close's pending-clear) are counted, not silently dropped.
    stray_bytes_ += n;
  }
}

void ClientFleet::CompleteRequest(TimeNs intended) {
  const TimeNs now = sim_->now();
  ++completed_total_;
  if (measuring_) {
    ++completed_window_;
    sim_->metrics().RecordNamed(hist_, static_cast<std::uint64_t>(now - intended));
  }
  if (probe_) {
    probe_(intended, now);
  }
}

// ---------------------------------------------------------------------------
// Request generation
// ---------------------------------------------------------------------------

void ClientFleet::IssueRequest(std::size_t i, TimeNs intended) {
  LoadConn& c = conns_[i];
  if (c.tcp == nullptr || !c.established || c.closing || c.tcp->dead()) {
    return;
  }
  ++issued_total_;
  if (measuring_) {
    ++issued_window_;
  }
  WorkloadModel::Request req = workload_.Sample(rng_);
  // The intended send time is the *scheduled* arrival instant — not now() (the
  // timer may have fired late when server work dragged the shared clock forward)
  // and not the instant bytes reached the socket (the request may sit in the
  // backlog). Measuring from anything later than the schedule is coordinated
  // omission. That is the whole point of open loop.
  c.pending.push_back(Pending{intended, kFrameHeaderBytes + req.response_bytes});
  SendOrQueue(*c.tcp, c.backlog, EncodeFrame(SgArray(std::move(req.payload))));
}

TimeNs ClientFleet::NextGap(const LoadConn& c) {
  const double weight = shard_weight_[static_cast<std::size_t>(c.shard)];
  const double rate = arrival_.current_rps() * weight / total_weight_;
  if (!(rate > 0)) {
    return kNever;
  }
  // Clamped into the representable range; a sub-ns draw still waits 1 ns.
  const double gap = std::min(rng_.NextExponential(1e9 / rate), 9.0e18);
  return std::max<TimeNs>(1, static_cast<TimeNs>(gap));
}

void ClientFleet::ScheduleArrival(std::size_t i) {
  LoadConn& c = conns_[i];
  CancelTimer(c.arrival);
  const TimeNs gap = NextGap(c);
  if (gap != kNever) {
    ArmArrival(i, sim_->now() + gap);
  }
}

void ClientFleet::ArmArrival(std::size_t i, TimeNs due) {
  // Self-rescheduling at absolute times: the next arrival is drawn from the
  // PREVIOUS SCHEDULED arrival, never from the (possibly late) fire time.
  // Rescheduling from fire times would silently clamp the offered rate to
  // whatever the system under test can absorb — closing the loop.
  conns_[i].arrival = sim_->ScheduleAt(due, [this, i, due] {
    conns_[i].arrival = kInvalidTimer;
    IssueRequest(i, due);
    const TimeNs gap = NextGap(conns_[i]);
    if (gap != kNever) {
      ArmArrival(i, due + gap);
    }
  });
}

void ClientFleet::RedrawAllArrivals() {
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    LoadConn& c = conns_[i];
    if (c.tcp != nullptr && c.established && !c.closing) {
      ScheduleArrival(i);
    }
  }
}

// ---------------------------------------------------------------------------
// Stressor clocks
// ---------------------------------------------------------------------------

void ClientFleet::ScheduleChurn() {
  if (cfg_.churn_per_sec <= 0) {
    return;
  }
  const TimeNs gap = std::max<TimeNs>(
      1, static_cast<TimeNs>(rng_.NextExponential(1e9 / cfg_.churn_per_sec)));
  churn_timer_ = sim_->Schedule(gap, [this] {
    churn_timer_ = kInvalidTimer;
    ChurnTick();
    ScheduleChurn();
  });
}

void ClientFleet::ChurnTick() {
  // Pick a random established victim; a bounded number of probes keeps the tick
  // O(1) even when most of the fleet is mid-reconnect.
  for (int tries = 0; tries < 16; ++tries) {
    const std::size_t i = static_cast<std::size_t>(rng_.NextBelow(conns_.size()));
    LoadConn& c = conns_[i];
    if (c.tcp != nullptr && c.established && !c.closing && !c.dead) {
      c.closing = true;
      ++churn_initiated_;
      CancelTimer(c.arrival);
      c.tcp->Close();
      return;
    }
  }
}

void ClientFleet::ArmIncast(TimeNs due) {
  // Absolute-time self-rescheduling, same open-loop discipline as ArmArrival.
  incast_timer_ = sim_->ScheduleAt(due, [this, due] {
    incast_timer_ = kInvalidTimer;
    // A rotating window of connections all fire at the same instant.
    for (std::size_t k = 0; k < cfg_.incast_fanin; ++k) {
      IssueRequest(incast_cursor_, due);
      incast_cursor_ = (incast_cursor_ + 1) % conns_.size();
    }
    ArmIncast(due + cfg_.incast_period_ns);
  });
}

void ClientFleet::SchedulePhaseFlip() {
  if (!arrival_.bursty()) {
    return;
  }
  phase_timer_ = sim_->Schedule(arrival_.NextDwellNs(rng_), [this] {
    phase_timer_ = kInvalidTimer;
    arrival_.FlipPhase();
    ++phase_flips_;
    // Every connection's next gap must come from the new phase rate: cancel and
    // redraw the whole fleet's arrival timers (a deliberate timer-wheel storm).
    RedrawAllArrivals();
    SchedulePhaseFlip();
  });
}

void ClientFleet::CancelTimer(TimerId& id) {
  if (id != kInvalidTimer) {
    sim_->Cancel(id);
    id = kInvalidTimer;
  }
}

// ---------------------------------------------------------------------------
// Drive
// ---------------------------------------------------------------------------

bool ClientFleet::Ramp(TimeNs deadline) {
  const TimeNs t_end = sim_->now() + deadline;
  std::size_t created = 0;
  while (created < cfg_.connections) {
    const std::size_t batch = std::min(cfg_.ramp_batch, cfg_.connections - created);
    for (std::size_t k = 0; k < batch; ++k) {
      OpenConnection(created + k);
    }
    created += batch;
    // Wait for the wave to establish before launching the next one so SYN floods
    // stay inside the listen backlog and the NIC rings.
    if (!sim_->RunUntil([&] { return established_ + dead_unexpected_ >= created; },
                        t_end)) {
      return false;
    }
  }
  // Client-side established; the server must have accepted every one too.
  return sim_->RunUntil(
      [&] { return server_accepted_() + dead_unexpected_ >= established_; }, t_end);
}

SweepPoint ClientFleet::RunPoint(double offered_rps, TimeNs warmup, TimeNs measure,
                                 const std::string& label) {
  StopLoad();
  arrival_.SetRate(offered_rps);
  // Normalizer for the per-connection shard weights, so the aggregate stays
  // `offered_rps` (summed per connection, in index order, every point).
  total_weight_ = 0;
  for (const LoadConn& c : conns_) {
    total_weight_ += shard_weight_[static_cast<std::size_t>(c.shard)];
  }
  point_active_ = true;
  RedrawAllArrivals();
  ScheduleChurn();
  if (cfg_.incast_fanin > 0) {
    ArmIncast(sim_->now() + cfg_.incast_period_ns);
  }
  SchedulePhaseFlip();
  sim_->RunFor(warmup);

  char name[128];
  std::snprintf(name, sizeof(name), "openloop/%s/%.0frps/latency_ns", label.c_str(),
                offered_rps);
  hist_ = sim_->metrics().NamedHistogram(name);
  const Histogram baseline = *hist_;  // repeated points at one rate share the name
  measuring_ = true;
  issued_window_ = 0;
  completed_window_ = 0;
  const TimeNs t0 = sim_->now();
  sim_->RunFor(measure);
  measuring_ = false;
  const TimeNs elapsed = sim_->now() - t0;

  const Histogram window = hist_->DiffSince(baseline);
  SweepPoint pt;
  pt.offered_rps = offered_rps;
  pt.issued = issued_window_;
  pt.completed = completed_window_;
  pt.achieved_rps =
      elapsed > 0 ? 1e9 * static_cast<double>(completed_window_) / elapsed : 0.0;
  pt.latency = SummarizeHistogram(window);
  pt.histogram_name = name;
  return pt;
}

void ClientFleet::StopLoad() {
  point_active_ = false;
  measuring_ = false;
  CancelTimer(churn_timer_);
  CancelTimer(incast_timer_);
  CancelTimer(phase_timer_);
  for (LoadConn& c : conns_) {
    CancelTimer(c.arrival);
  }
}

bool ClientFleet::ReapClosed() {
  bool did = false;
  for (auto& s : client_stacks_) {
    if (s->closed_unreaped() > kReapThreshold) {
      s->ReapClosed();
      did = true;
    }
  }
  return did;
}

}  // namespace demi
