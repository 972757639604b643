// perfbench: runs one named benchmark workload through the public entry points an
// application uses and prints every metric it measured as one JSON line.
//
//   perfbench --workload <echo|kv-skew|storage|churn> --seed <n> --seconds <s>
//             --trace <0|1> [--size full|smoke] [--trace-out <file>]
//
// A run repeats the whole workload — set-up plus measured phases, on a fresh
// simulation — until --seconds of host time have passed (at least three times, or
// two untraced plus two traced repetitions with --trace 1). Sim metrics are virtual
// time and must repeat bit-for-bit in every repetition; a mismatch is reported as
// an error. Host metrics (setup_s, run_s, ...) are the medians over repetitions.
//
// With --trace 1 every second repetition records spans around each call the
// benchmark makes into a layer, plus counter snapshots at the phase boundaries;
// the per-layer metrics come from those repetitions and the last trace is written
// to --trace-out. Tracing never touches the MetricsRegistry switch: SmpHarness
// records its latency histograms through it, so it stays enabled in every run.
//
// Per-op counters are read from server-side hosts only (SmpWorker::cpu(), the
// churn server host, the Catfish host). SmpHarness's NIC-driver HostCpu is
// private, so NIC work is taken from SimNic::queue_stats() and its CPU is not in
// cpu_ns_per_op. See perfbench/README.md for the metric and layer tables.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/block_index.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/harness.h"
#include "src/core/smp.h"
#include "src/load/adaptive_harness.h"
#include "src/load/smp_harness.h"
#include "src/sim/cost_model.h"
#include "src/sim/metrics.h"
#include "src/sim/simulation.h"

namespace demi::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::int64_t Nanos(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
      .count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

// Quantile q of `h`, interpolated linearly inside the log bucket that holds it
// (buckets are 1/64 of a power of two wide), so a percentile moves continuously
// with the data instead of jumping between bucket bounds. Histogram::Quantile
// reports the bucket's upper bound.
double QuantileUs(const Histogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n <= 1) {
    return Us(h.max());
  }
  // Value of the r-th smallest sample (1-based), to bucket precision.
  auto at_rank = [&](std::uint64_t r) {
    return h.Quantile((static_cast<double>(r) - 0.5) / static_cast<double>(n - 1));
  };
  const double target = q * static_cast<double>(n - 1) + 1;
  const auto r = static_cast<std::uint64_t>(target);
  const std::uint64_t v = at_rank(r);
  std::uint64_t lo = 1;  // first rank in v's bucket
  std::uint64_t hi = r;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (at_rank(mid) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  std::uint64_t last = r;  // last rank in v's bucket
  std::uint64_t top = n;
  while (last < top) {
    const std::uint64_t mid = last + (top - last + 1) / 2;
    if (at_rank(mid) > v) {
      top = mid - 1;
    } else {
      last = mid;
    }
  }
  const int shift = v < 64 ? 0 : std::bit_width(v) - 7;
  const double low_edge =
      std::max(static_cast<double>((v >> shift) << shift), static_cast<double>(h.min()));
  const double high_edge = std::min(
      static_cast<double>(((v >> shift) << shift) + (std::uint64_t{1} << shift)),
      static_cast<double>(h.max()) + 1);
  const double in_bucket = static_cast<double>(last - lo + 1);
  const double pos = (target - static_cast<double>(lo) + 0.5) / in_bucket;
  return (low_edge + std::clamp(pos, 0.0, 1.0) * (high_edge - low_edge)) / 1000.0;
}

std::uint64_t Fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  bool sim = true;  // virtual-time value (repeats per seed) vs host wall clock
  double value = 0;
};

class MetricSet {
 public:
  void Sim(const std::string& name, const std::string& unit, double value) {
    items_.push_back(Metric{name, unit, true, value});
  }
  void Host(const std::string& name, const std::string& unit, double value) {
    items_.push_back(Metric{name, unit, false, value});
  }
  const std::vector<Metric>& items() const { return items_; }

  // FNV-1a over every sim metric's name and value bits: the run's determinism probe.
  std::uint64_t SimDigest() const {
    std::uint64_t h = kFnvBasis;
    for (const Metric& m : items_) {
      if (m.sim) {
        h = Fnv(h, m.name.data(), m.name.size());
        h = Fnv(h, &m.value, sizeof(m.value));
      }
    }
    return h;
  }

 private:
  std::vector<Metric> items_;
};

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's own calls into each layer
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t id;  // phase index or request number
    std::int64_t host_start_ns;
    std::int64_t host_end_ns;
    TimeNs sim_start;
    TimeNs sim_end;
  };
  struct Snap {
    int span;
    const char* boundary;  // "begin" or "end"
    std::vector<std::pair<const char*, std::uint64_t>> counters;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, std::uint64_t id, const Simulation* sim) {
    if (!enabled_) {
      return -1;
    }
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), id,
                          Nanos(Clock::now()), 0, sim ? sim->now() : 0, 0});
    open_.push_back(idx);
    return idx;
  }
  void End(int idx, const Simulation* sim) {
    if (idx < 0) {
      return;
    }
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.host_end_ns = Nanos(Clock::now());
    s.sim_end = sim ? sim->now() : 0;
    if (!open_.empty() && open_.back() == idx) {
      open_.pop_back();
    }
  }
  // Counter snapshot at a span boundary (server-side counters only).
  void Snapshot(int span, const char* boundary, const Counters& c) {
    if (span < 0) {
      return;
    }
    Snap snap{span, boundary, {}};
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      const auto counter = static_cast<Counter>(i);
      if (c.Get(counter) != 0) {
        snap.counters.emplace_back(CounterName(counter).data(), c.Get(counter));
      }
    }
    snaps_.push_back(std::move(snap));
  }

  // Median host duration (ns) of spans named `name`; 0 when none were recorded.
  double MedianHostNs(const char* name) const {
    std::vector<std::int64_t> d;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) == 0) {
        d.push_back(s.host_end_ns - s.host_start_ns);
      }
    }
    if (d.empty()) {
      return 0;
    }
    std::nth_element(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(d.size() / 2),
                     d.end());
    return static_cast<double>(d[d.size() / 2]);
  }
  std::size_t span_count() const { return spans_.size(); }

  bool Write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    // Spans as rows: [name, parent, id, host_start_ns, host_end_ns, sim_start_ns,
    // sim_end_ns]; a span's index is its row number.
    std::fprintf(f, "{%s,\n\"span_fields\": [\"name\", \"parent\", \"id\", "
                 "\"host_start_ns\", \"host_end_ns\", \"sim_start_ns\", \"sim_end_ns\"],"
                 "\n\"spans\": [", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n[\"%s\",%d,%" PRIu64 ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64 "]",
                   i == 0 ? "" : ",", s.name, s.parent, s.id, s.host_start_ns,
                   s.host_end_ns, static_cast<std::int64_t>(s.sim_start),
                   static_cast<std::int64_t>(s.sim_end));
    }
    std::fprintf(f, "],\n\"counter_snapshots\": [");
    for (std::size_t i = 0; i < snaps_.size(); ++i) {
      const Snap& s = snaps_[i];
      std::fprintf(f, "%s\n{\"span\":%d,\"at\":\"%s\",\"counters\":{", i == 0 ? "" : ",",
                   s.span, s.boundary);
      for (std::size_t k = 0; k < s.counters.size(); ++k) {
        std::fprintf(f, "%s\"%s\":%" PRIu64, k == 0 ? "" : ",", s.counters[k].first,
                     s.counters[k].second);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Snap> snaps_;
  std::vector<int> open_;
};

// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t id, const Simulation* sim)
      : t_(t), sim_(sim), idx_(t.Begin(name, id, sim)) {}
  ~Scope() { t_.End(idx_, sim_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return idx_; }
  // The simulation may be built inside the span (harness construction).
  void set_sim(const Simulation* sim) { sim_ = sim; }

 private:
  Tracer& t_;
  const Simulation* sim_;
  int idx_;
};

// ---------------------------------------------------------------------------
// Layer samples: server-side counters read at phase boundaries
// ---------------------------------------------------------------------------

struct LayerSample {
  Counters cpu;                  // summed over the server-side HostCpus
  std::uint64_t busy_ns = 0;     // server-side simulated CPU
  std::uint64_t nic_doorbells = 0;
  std::uint64_t nic_dma = 0;
  std::uint64_t nic_frames = 0;  // tx + rx frames on the server NIC queues
  std::uint64_t nic_tx_frames = 0;
  std::uint64_t nic_drops = 0;
  std::uint64_t schedule_calls = 0;
  Histogram sched_depth;         // SimStat::kSchedHeapDepth, core 0
  MetricsSnapshot registry;      // op-latency histograms merged over cores
  Clock::time_point host = Clock::now();
};

void AddCounters(Counters& into, const Counters& from) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    into.Add(c, from.Get(c));
  }
}

void AddNic(LayerSample& s, const SimNic& nic) {
  for (int q = 0; q < nic.config().num_queues; ++q) {
    const SimNic::QueueStats& qs = nic.queue_stats(q);
    s.nic_doorbells += qs.doorbells;
    s.nic_dma += qs.dma_ops;
    s.nic_frames += qs.tx_frames + qs.rx_frames;
    s.nic_tx_frames += qs.tx_frames;
  }
  s.nic_drops += nic.rx_ring_drops();
}

void SampleSim(LayerSample& s, Simulation& sim) {
  s.schedule_calls = sim.schedule_calls();
  s.sched_depth = sim.metrics(0).sim_stat(SimStat::kSchedHeapDepth);
  s.registry = sim.MergedSnapshot();
  s.host = Clock::now();
}

// The work between two samples; windows from several simulations add up.
struct LayerWindow {
  Counters cpu;
  std::uint64_t busy_ns = 0;
  std::uint64_t nic_doorbells = 0;
  std::uint64_t nic_dma = 0;
  std::uint64_t nic_frames = 0;
  std::uint64_t nic_tx_frames = 0;
  std::uint64_t nic_drops = 0;
  std::uint64_t events = 0;
  double host_s = 0;
  std::uint64_t pending_peak = 0;
  std::map<std::string, std::array<Histogram, kNumOpKinds>> op_latency;

  void Add(const LayerSample& a, const LayerSample& b) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      const auto c = static_cast<Counter>(i);
      cpu.Add(c, b.cpu.Get(c) - a.cpu.Get(c));
    }
    busy_ns += b.busy_ns - a.busy_ns;
    nic_doorbells += b.nic_doorbells - a.nic_doorbells;
    nic_dma += b.nic_dma - a.nic_dma;
    nic_frames += b.nic_frames - a.nic_frames;
    nic_tx_frames += b.nic_tx_frames - a.nic_tx_frames;
    nic_drops += b.nic_drops - a.nic_drops;
    events += b.schedule_calls - a.schedule_calls;
    host_s += Seconds(a.host, b.host);
    pending_peak = std::max(pending_peak, b.sched_depth.DiffSince(a.sched_depth).max());
    const MetricsSnapshot window = MetricsRegistry::Delta(b.registry, a.registry);
    for (const auto& [name, hists] : window.op_latency) {
      auto& into = op_latency[name];
      for (std::size_t k = 0; k < kNumOpKinds; ++k) {
        into[k].Merge(hists[k]);
      }
    }
  }
  double Get(Counter c) const { return static_cast<double>(cpu.Get(c)); }
};

// Every per-layer metric that derives from a window, per completed op. Layers that
// do no work on a workload read zero.
void LayerMetrics(const LayerWindow& w, double ops, const std::string& libos,
                  MetricSet& m) {
  const auto events = static_cast<double>(w.events);
  m.Sim("sim.events_per_op", "count", Ratio(events, ops));
  m.Host("sim.host_ns_per_event", "ns", Ratio(w.host_s * 1e9, events));
  m.Sim("sim.pending_peak", "count", static_cast<double>(w.pending_peak));

  const auto doorbells = static_cast<double>(w.nic_doorbells);
  m.Sim("hw.nic.doorbells_per_op", "count", Ratio(doorbells, ops));
  m.Sim("hw.nic.frames_per_doorbell", "count",
        Ratio(static_cast<double>(w.nic_tx_frames), doorbells));
  m.Sim("hw.nic.dma_per_op", "count", Ratio(static_cast<double>(w.nic_dma), ops));
  m.Sim("hw.nic.packets_per_op", "count", Ratio(static_cast<double>(w.nic_frames), ops));
  m.Sim("hw.nic.drops_per_op", "count", Ratio(static_cast<double>(w.nic_drops), ops));

  auto per_op = [&](Counter c) { return Ratio(w.Get(c), ops); };
  m.Sim("net.retransmits_per_op", "count", per_op(Counter::kRetransmissions));
  m.Sim("net.acks_coalesced_per_op", "count", per_op(Counter::kAcksCoalesced));
  m.Sim("net.delayed_acks_per_op", "count", per_op(Counter::kDelayedAcks));

  m.Sim("memory.bytes_copied_per_op", "B", per_op(Counter::kBytesCopied));
  m.Sim("memory.buffer_allocs_per_op", "count", per_op(Counter::kBufferAllocs));
  const double misses = w.Get(Counter::kHeaderPoolMisses);
  m.Sim("memory.header_pool_miss_frac", "ratio",
        Ratio(misses, w.Get(Counter::kHeaderPoolHits) + misses));

  m.Sim("core.libos.calls_per_op", "count", per_op(Counter::kLibosCalls));
  m.Sim("core.libos.wakeups_per_op", "count", per_op(Counter::kWakeups));
  m.Sim("core.libos.spurious_wakeup_frac", "ratio",
        Ratio(w.Get(Counter::kSpuriousWakeups), w.Get(Counter::kWakeups)));
  double push_p99 = 0;
  double pop_p99 = 0;
  if (auto it = w.op_latency.find(libos); it != w.op_latency.end()) {
    push_p99 = QuantileUs(it->second[static_cast<std::size_t>(OpKind::kPush)], 0.99);
    pop_p99 = QuantileUs(it->second[static_cast<std::size_t>(OpKind::kPop)], 0.99);
  }
  m.Sim("core.libos.push_p99_us", "us", push_p99);
  m.Sim("core.libos.pop_p99_us", "us", pop_p99);

  const double attempts = w.Get(Counter::kStealAttempts);
  const double stolen = w.Get(Counter::kCompletionsStolen);
  m.Sim("core.smp.steal_attempts_per_op", "count", Ratio(attempts, ops));
  m.Sim("core.smp.steal_yield", "ratio", Ratio(stolen, attempts));
  m.Sim("core.smp.stolen_frac", "ratio", Ratio(stolen, ops));

  m.Sim("kernel.syscalls_per_op", "count", per_op(Counter::kSyscalls));
  m.Sim("kernel.fastcalls_per_op", "count", per_op(Counter::kFastcallCrossings));
  m.Sim("kernel.context_switches_per_op", "count", per_op(Counter::kContextSwitches));
  m.Sim("kernel.interrupts_per_op", "count", per_op(Counter::kInterrupts));
}

// Per-layer metrics a workload's layers never produce, reported as zero so every
// workload emits the same per-layer names.
void Zeros(MetricSet& m, std::initializer_list<std::pair<const char*, const char*>> names) {
  for (const auto& [name, unit] : names) {
    m.Sim(name, unit, 0);
  }
}

// ---------------------------------------------------------------------------
// Workload sizes and rate points
// ---------------------------------------------------------------------------

struct RatePoint {
  const char* label;
  double rps;
  TimeNs measure;  // window length; busy gets the longest (it carries the gated p99)
};

struct OpenLoopSpec {
  int workers = 1;
  std::size_t connections = 16384;
  WorkloadKind kind = WorkloadKind::kEcho;
  double shard_skew = 0;
  TimeNs warmup = 5 * kMillisecond;
  // Ascending; must contain "light" and "busy". capacity_rps is the highest of
  // these meeting the SLO.
  std::vector<RatePoint> points;
  double slo_p99_us = 100;
  // Past the knee, requests wait out TCP retransmission backoff; every one has
  // completed within ~5 s of simulated time after load stops on seed 1.
  TimeNs drain_deadline = 10 * kSecond;
  std::uint64_t min_busy_samples = 10000;  // for a p99.9 with >= 10 samples beyond it
};

// Rates are absolute, fixed once from the knee measured on seed 1 (README.md).
OpenLoopSpec EchoSpec(bool smoke) {
  OpenLoopSpec s;
  s.workers = 1;
  s.connections = smoke ? 256 : 16384;
  s.kind = WorkloadKind::kEcho;
  s.warmup = smoke ? 1 * kMillisecond : 5 * kMillisecond;
  s.min_busy_samples = smoke ? 1 : 10000;
  const TimeNs ms = smoke ? kMillisecond / 20 : kMillisecond;
  s.points = {{"light", 135'000, 40 * ms},  {"busy", 345'000, 320 * ms},
              {"knee", 405'000, 20 * ms},   {"1.25x", 505'000, 20 * ms},
              {"2x", 810'000, 20 * ms},     {"4x", 1'620'000, 20 * ms}};
  return s;
}

OpenLoopSpec KvSkewSpec(bool smoke) {
  OpenLoopSpec s;
  s.workers = 4;
  s.connections = smoke ? 256 : 8192;
  s.kind = WorkloadKind::kKv;
  s.shard_skew = 1.5;
  s.warmup = smoke ? 1 * kMillisecond : 5 * kMillisecond;
  s.min_busy_samples = smoke ? 1 : 10000;
  const TimeNs ms = smoke ? kMillisecond / 20 : kMillisecond;
  // No 2x point: draining its retransmission backlog simulates ~3 s of four
  // idle-polling workers, ~30 s of host time per repetition.
  s.points = {{"light", 200'000, 25 * ms}, {"busy", 510'000, 400 * ms},
              {"knee", 600'000, 15 * ms},  {"1.25x", 750'000, 15 * ms}};
  return s;
}

struct RepOutput {
  MetricSet metrics;  // sim + host, e2e and per-layer alike
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> notes;  // human-readable facts (rates, sizes, ...)
  std::uint64_t harness_digest = 0;  // a harness's own completion digest, if it has one
};

void Check(RepOutput& out, bool ok, const std::string& what) {
  if (!ok) {
    out.errors.push_back(what);
  }
}

// ---------------------------------------------------------------------------
// echo / kv-skew: open loop through Catnip workers behind SmpHarness/WorkerPool
// ---------------------------------------------------------------------------

LayerSample SampleSmp(SmpHarness& h) {
  LayerSample s;
  for (int w = 0; w < h.pool().size(); ++w) {
    SmpWorker& worker = h.pool().worker(w);
    AddCounters(s.cpu, worker.cpu().counters());
    s.busy_ns += worker.cpu().busy_ns();
  }
  AddNic(s, h.server_nic());
  SampleSim(s, h.sim());
  return s;
}

RepOutput RunOpenLoop(const OpenLoopSpec& spec, std::uint64_t seed, Tracer& tr) {
  RepOutput out;
  MetricSet& m = out.metrics;

  SmpHarnessConfig cfg;
  cfg.workers = spec.workers;
  cfg.connections = spec.connections;
  cfg.client_stacks = std::max<std::size_t>(4, (spec.connections + 2047) / 2048);
  cfg.workload.kind = spec.kind;
  cfg.server_request_cpu_ns = 500;
  cfg.steal = true;
  cfg.shard_skew = spec.shard_skew;
  cfg.seed = seed;

  const auto t_setup = Clock::now();
  std::unique_ptr<SmpHarness> h;
  bool ramped = false;
  double ramp_s = 0;
  {
    Scope setup(tr, "setup", 0, nullptr);
    {
      Scope build(tr, "SmpHarness", 0, nullptr);
      h = std::make_unique<SmpHarness>(cfg);
      build.set_sim(&h->sim());
    }
    setup.set_sim(&h->sim());
    const auto t_ramp = Clock::now();
    Scope ramp(tr, "Ramp", 0, &h->sim());
    ramped = h->Ramp();
    ramp_s = Seconds(t_ramp, Clock::now());
  }
  const double setup_s = Seconds(t_setup, Clock::now());
  Check(out, ramped, "ramp did not establish every connection");
  Check(out, h->established_connections() == spec.connections,
        "established connections != configured");

  const auto t_run = Clock::now();
  std::map<std::string, SweepPoint> pts;
  std::map<std::string, double> point_host_s;
  LayerWindow busy_w;
  TimeNs busy_window = 0;
  std::uint64_t busy_ops = 0;
  std::vector<std::uint64_t> busy_served(static_cast<std::size_t>(spec.workers), 0);
  {
    Scope run(tr, "run", 0, &h->sim());
    for (std::size_t i = 0; i < spec.points.size() && ramped; ++i) {
      const RatePoint& p = spec.points[i];
      const bool busy = std::strcmp(p.label, "busy") == 0;
      std::vector<std::uint64_t> served0;
      for (int w = 0; w < spec.workers; ++w) {
        served0.push_back(h->pool().worker(w).requests_served());
      }
      const std::uint64_t done0 = h->completed_total();
      LayerSample a = SampleSmp(*h);
      const auto t_point = Clock::now();
      Scope point(tr, "RunPoint", i, &h->sim());
      tr.Snapshot(point.index(), "begin", a.cpu);
      pts[p.label] = h->RunPoint(p.rps, spec.warmup, p.measure, p.label);
      point_host_s[p.label] = Seconds(t_point, Clock::now());
      LayerSample b = SampleSmp(*h);
      tr.Snapshot(point.index(), "end", b.cpu);
      if (busy) {
        busy_ops = h->completed_total() - done0;
        for (int w = 0; w < spec.workers; ++w) {
          busy_served[static_cast<std::size_t>(w)] =
              h->pool().worker(w).requests_served() - served0[static_cast<std::size_t>(w)];
        }
        busy_w.Add(a, b);
        busy_window = p.measure;
      }
    }
    Scope drain(tr, "drain", 0, &h->sim());
    h->StopLoad();
    Simulation& sim = h->sim();
    sim.RunUntil([&] { return h->completed_total() >= h->issued_total(); },
                 sim.now() + spec.drain_deadline);
  }
  const double run_s = Seconds(t_run, Clock::now());

  // Output checks: every issued request answered by the drain deadline, and no
  // qtoken left pending beyond each live connection's standing pop and each
  // worker's standing accept.
  out.attempted = h->issued_total();
  out.failed = h->issued_total() - std::min(h->issued_total(), h->completed_total());
  Check(out, out.failed == 0, "requests not completed by the drain deadline");
  const double standing =
      static_cast<double>(h->established_connections()) + spec.workers;
  const double pending_after_drain =
      static_cast<double>(h->pool().total_pending_ops()) - standing;
  Check(out, pending_after_drain == 0, "qtokens pending after drain");
  for (const RatePoint& p : spec.points) {
    Check(out, pts.count(p.label) == 1, std::string("rate point not run: ") + p.label);
  }
  if (!out.errors.empty()) {
    return out;
  }

  const SweepPoint& busy = pts["busy"];
  Check(out, busy.latency.count >= spec.min_busy_samples, "too few samples at busy");
  // Each point records its window into its own named histogram (RunPoint).
  std::map<std::string, Histogram> hist;
  for (const RatePoint& p : spec.points) {
    const Histogram* window = h->sim().metrics(0).named(pts[p.label].histogram_name);
    Check(out, window != nullptr && window->count() == pts[p.label].latency.count,
          std::string("no latency histogram for point ") + p.label);
    if (window != nullptr) {
      hist[p.label] = *window;
    }
  }
  if (!out.errors.empty()) {
    return out;
  }

  double capacity = 0;
  for (const RatePoint& p : spec.points) {
    const SweepPoint& pt = pts[p.label];
    if (QuantileUs(hist[p.label], 0.99) <= spec.slo_p99_us &&
        pt.achieved_rps >= 0.99 * p.rps) {
      capacity = std::max(capacity, p.rps);
    }
  }

  const double ops = static_cast<double>(busy_ops);
  // End-to-end.
  m.Sim("p50_us", "us", QuantileUs(hist["busy"], 0.5));
  m.Sim("p99_us", "us", QuantileUs(hist["busy"], 0.99));
  m.Sim("p99_light_us", "us", QuantileUs(hist["light"], 0.99));
  m.Sim("cpu_ns_per_op", "ns",
        Ratio(static_cast<double>(busy_w.busy_ns), ops));
  m.Sim("ops_per_s", "op/s", busy.achieved_rps);
  m.Host("setup_s", "s", setup_s);
  m.Host("run_s", "s", run_s);
  // Workload-specific end-to-end figures.
  m.Sim("p999_us", "us", QuantileUs(hist["busy"], 0.999));
  m.Sim("capacity_rps", "req/s", capacity);
  m.Sim("goodput_2x_rps", "req/s", pts.count("2x") ? pts["2x"].achieved_rps : 0.0);
  m.Sim("goodput_4x_rps", "req/s", pts.count("4x") ? pts["4x"].achieved_rps : 0.0);
  m.Sim("append_p99_us", "us", 0);
  m.Sim("cold_p50_us", "us", 0);
  m.Sim("fail_frac", "ratio", Ratio(static_cast<double>(out.failed),
                                    static_cast<double>(out.attempted)));

  // Per-layer, over the busy point.
  LayerMetrics(busy_w, ops, "catnip", m);
  m.Sim("core.libos.pending_after_drain", "count", pending_after_drain);
  const double mean_served = Ratio(ops, spec.workers);
  m.Sim("core.smp.shard_imbalance", "ratio",
        Ratio(static_cast<double>(*std::max_element(busy_served.begin(),
                                                    busy_served.end())),
              mean_served));
  Zeros(m, {{"kernel.accepts_per_batch", "count"},
            {"core.policy.promotions", "count"},
            {"core.policy.demotions", "count"},
            {"core.policy.live_flow_slots", "count"},
            {"core.policy.flow_slots_released", "count"},
            {"core.policy.flow_slots_denied", "count"},
            {"core.recovery.failovers", "count"},
            {"hw.block.nvme_per_op", "count"},
            {"hw.block.host_completions_per_op", "count"},
            {"hw.block.doorbells_per_op", "count"},
            {"hw.block.pushdown_steps_per_lookup", "count"},
            {"hw.block.device_compute_ns_per_lookup", "ns"}});
  m.Host("apps.index.lookup_submit_host_ns", "ns", 0);
  m.Host("core.catfish.push_submit_host_ns", "ns", 0);
  m.Host("core.libos.wait_any_host_ns", "ns", 0);
  m.Host("apps.index.build_host_s", "s", 0);
  m.Host("load.ramp_host_s", "s", ramp_s);
  for (const char* label : {"light", "busy", "2x", "4x"}) {
    m.Host(std::string("load.point_host_s.") + label, "s",
           point_host_s.count(label) ? point_host_s[label] : 0.0);
  }
  m.Sim("load.issue_ratio", "ratio",
        Ratio(static_cast<double>(busy.issued),
              busy.offered_rps * static_cast<double>(busy_window) / 1e9));

  for (const RatePoint& p : spec.points) {
    const SweepPoint& pt = pts[p.label];
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "point %-6s offered %9.0f req/s achieved %9.0f req/s p50 %8.1f us "
                  "p99 %9.1f us p999 %9.1f us n=%" PRIu64,
                  p.label, p.rps, pt.achieved_rps, QuantileUs(hist[p.label], 0.5),
                  QuantileUs(hist[p.label], 0.99), QuantileUs(hist[p.label], 0.999),
                  pt.latency.count);
    out.notes.push_back(buf);
  }
  return out;
}

// ---------------------------------------------------------------------------
// storage: closed loop on one Catfish libOS — push-down lookups beside appends
// ---------------------------------------------------------------------------

struct StorageSpec {
  std::size_t keys = 262144;  // fanout 16: a 5-level tree of 17,477 blocks
  std::size_t fanout = 16;
  // The device's full 64-command queue: the device is saturated without a host
  // backlog. Deeper queues (80-128) split seeds between two steady states whose
  // throughput differs by 3-6 %, which would make the seed, not the code, move
  // the figures.
  std::size_t queue_depth = 64;
  std::size_t ops = 150000;          // mixed-phase operations
  std::size_t light_lookups = 4000;  // queue-depth-1 lookups
  double lookup_share = 0.8;
  std::size_t record_bytes = 1024;
};

StorageSpec StorageSpecFor(bool smoke) {
  StorageSpec s;
  if (smoke) {
    s.keys = 4096;
    s.fanout = 8;  // still 4 levels
    s.ops = 2000;
    s.light_lookups = 200;
  }
  return s;
}

// Payload of append number `seq`: the sequence number, then a seq-derived fill.
SgArray AppendRecord(LibOS& libos, std::uint64_t seed, std::uint64_t seq, std::size_t bytes) {
  SgArray sga = libos.SgaAlloc(bytes);
  std::byte* p = sga.segment(0).mutable_data();
  std::memcpy(p, &seq, sizeof(seq));
  std::memset(p + sizeof(seq), static_cast<int>(Mix(seed, seq) & 0xff),
              bytes - sizeof(seq));
  return sga;
}

bool RecordMatches(const SgArray& got, std::uint64_t seed, std::uint64_t seq,
                   std::size_t bytes) {
  if (got.total_bytes() != bytes) {
    return false;
  }
  const std::string flat = got.ToString();
  std::uint64_t stored = 0;
  std::memcpy(&stored, flat.data(), sizeof(stored));
  const char fill = static_cast<char>(Mix(seed, seq) & 0xff);
  return stored == seq &&
         std::all_of(flat.begin() + sizeof(seq), flat.end(),
                     [fill](char c) { return c == fill; });
}

LayerSample SampleHost(TestHarness::Host& host, Simulation& sim) {
  LayerSample s;
  AddCounters(s.cpu, host.cpu->counters());
  s.busy_ns = host.cpu->busy_ns();
  if (host.nic) {
    AddNic(s, *host.nic);
  }
  if (host.knic) {
    AddNic(s, *host.knic);
  }
  SampleSim(s, sim);
  return s;
}

RepOutput RunStorage(const StorageSpec& spec, std::uint64_t seed, Tracer& tr) {
  RepOutput out;
  MetricSet& m = out.metrics;

  // Index content from the seed: strictly ascending keys with seeded gaps, values
  // a seeded hash of the key.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(spec.keys);
  std::uint64_t key = 1 + (Mix(seed, 0) & 0xff);
  for (std::size_t i = 0; i < spec.keys; ++i) {
    key += 1 + (Mix(seed, i + 1) & 0xf);
    entries.emplace_back(key, Mix(seed ^ 0x5a17, key));
  }

  const auto t_setup = Clock::now();
  std::unique_ptr<TestHarness> env;
  TestHarness::Host* host = nullptr;
  CatfishLibOS* libos = nullptr;
  std::optional<BlockIndex> index;
  PushdownProgramId program = kInvalidPushdownProgram;
  QDesc log = kInvalidQDesc;
  double build_s = 0;
  {
    Scope setup(tr, "setup", 0, nullptr);
    env = std::make_unique<TestHarness>();
    setup.set_sim(&env->sim());
    HostOptions opts;
    opts.with_nic = false;
    opts.with_kernel = false;
    opts.with_block_device = true;
    host = &env->AddHost("storage", "10.0.0.1", opts);
    CatfishConfig fcfg;
    fcfg.extent_blocks = 1 << 15;  // 128 MiB per file: index nodes and the append log
    libos = &env->Catfish(*host, fcfg);
    const auto t_build = Clock::now();
    {
      Scope build(tr, "BlockIndex::Build", 0, &env->sim());
      auto built = BlockIndex::Build(*libos, "/idx/kv", entries, spec.fanout);
      if (built.ok()) {
        index.emplace(std::move(*built));
      }
    }
    build_s = Seconds(t_build, Clock::now());
    auto prog = libos->InstallPushdownProgram(BlockIndex::LookupProgram());
    auto qd = libos->Creat("/wal/log");
    if (prog.ok()) {
      program = *prog;
    }
    if (qd.ok()) {
      log = *qd;
    }
  }
  const double setup_s = Seconds(t_setup, Clock::now());
  Check(out, index.has_value(), "BlockIndex::Build failed");
  Check(out, program != kInvalidPushdownProgram, "push-down program install failed");
  Check(out, log != kInvalidQDesc, "log create failed");
  if (!out.errors.empty()) {
    return out;
  }
  Check(out, index->depth() >= 4, "index shallower than 4 levels");
  Simulation& sim = env->sim();

  Rng rng(Mix(seed, 0x5702));
  Histogram lookup_lat;
  Histogram append_lat;
  Histogram light_lat;
  std::uint64_t appends = 0;
  std::uint64_t lookups = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t errored = 0;

  struct Slot {
    QToken token = kInvalidQToken;
    bool lookup = false;
    std::uint64_t expect = 0;
    TimeNs submitted = 0;
  };
  std::uint64_t request = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  // Starts one operation in `s`; a refused submit counts as attempted and failed.
  auto start = [&](Slot& s) {
    ++submitted;
    s.submitted = sim.now();
    s.lookup = rng.NextDouble() < spec.lookup_share;
    Result<QToken> token = Status(ErrorCode::kUnsupported, "unset");
    if (s.lookup) {
      const auto& e = entries[rng.NextBelow(entries.size())];
      s.expect = e.second;
      Scope span(tr, "LookupAsync", request++, &sim);
      token = index->LookupAsync(program, e.first);
    } else {
      s.expect = appends;
      SgArray rec = AppendRecord(*libos, seed, appends++, spec.record_bytes);
      Scope span(tr, "Push", request++, &sim);
      token = libos->Push(log, rec);
    }
    if (token.ok()) {
      s.token = *token;
    } else {
      ++errored;
      ++completed;
    }
  };
  auto finish = [&](Slot& s, const QResult& r) {
    const auto lat = static_cast<std::uint64_t>(sim.now() - s.submitted);
    if (!r.status.ok()) {
      ++errored;
    } else if (s.lookup) {
      ++lookups;
      lookup_lat.Record(lat);
      mismatches += BlockIndex::DecodeValue(r.sga) != s.expect;
    } else {
      append_lat.Record(lat);
    }
    s.token = kInvalidQToken;
  };

  const auto t_run = Clock::now();
  LayerSample a;
  LayerSample b;
  TimeNs mixed_sim_ns = 0;
  double mixed_host_s = 0;
  {
    Scope run(tr, "run", 0, &sim);
    // Mixed closed loop: queue_depth slots, each resubmits on completion.
    {
      a = SampleHost(*host, sim);
      const auto t_mixed = Clock::now();
      Scope mixed(tr, "mixed", 0, &sim);
      tr.Snapshot(mixed.index(), "begin", a.cpu);
      const TimeNs sim0 = sim.now();
      std::vector<Slot> slots(spec.queue_depth);
      std::vector<QToken> tokens(spec.queue_depth);
      for (Slot& s : slots) {
        if (submitted < spec.ops) {
          start(s);
        }
      }
      std::vector<std::size_t> slot_of(spec.queue_depth);
      while (true) {
        std::size_t live = 0;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          if (slots[i].token != kInvalidQToken) {
            tokens[live] = slots[i].token;
            slot_of[live++] = i;
          }
        }
        if (live == 0) {
          break;
        }
        Result<std::pair<std::size_t, QResult>> got = Status(ErrorCode::kUnsupported, "");
        {
          Scope span(tr, "WaitAny", completed, &sim);
          got = libos->WaitAny(std::span<const QToken>(tokens.data(), live));
        }
        if (!got.ok()) {
          ++errored;
          break;
        }
        Slot& s = slots[slot_of[got->first]];
        finish(s, got->second);
        ++completed;
        if (submitted < spec.ops) {
          start(s);
        }
      }
      mixed_sim_ns = sim.now() - sim0;
      mixed_host_s = Seconds(t_mixed, Clock::now());
      b = SampleHost(*host, sim);
      tr.Snapshot(mixed.index(), "end", b.cpu);
    }
    // Queue depth 1: the unloaded lookup path.
    Scope light(tr, "light", 0, &sim);
    for (std::size_t i = 0; i < spec.light_lookups; ++i) {
      const auto& e = entries[rng.NextBelow(entries.size())];
      const TimeNs t0 = sim.now();
      Result<QToken> token = Status(ErrorCode::kUnsupported, "");
      {
        Scope span(tr, "LookupAsync", request++, &sim);
        token = index->LookupAsync(program, e.first);
      }
      ++submitted;
      if (!token.ok()) {
        ++errored;
        ++completed;
        continue;
      }
      Result<QResult> r = Status(ErrorCode::kUnsupported, "");
      {
        Scope span(tr, "Wait", i, &sim);
        r = libos->Wait(*token);
      }
      ++completed;
      if (!r.ok() || !r->status.ok()) {
        ++errored;
        continue;
      }
      light_lat.Record(static_cast<std::uint64_t>(sim.now() - t0));
      mismatches += BlockIndex::DecodeValue(r->sga) != e.second;
    }
  }
  const double run_s = Seconds(t_run, Clock::now());

  // Output checks: the append log reads back intact, in order.
  std::uint64_t bad_records = 0;
  {
    Scope check(tr, "readback", 0, &sim);
    for (std::uint64_t seq = 0; seq < appends; ++seq) {
      auto r = libos->BlockingPop(log);
      bad_records += !(r.ok() && r->status.ok() &&
                       RecordMatches(r->sga, seed, seq, spec.record_bytes));
    }
  }
  out.attempted = submitted;
  out.failed = errored + mismatches + (submitted - std::min(submitted, completed));
  Check(out, errored == 0, "storage operations errored");
  Check(out, mismatches == 0, "lookup returned a value other than the one built");
  Check(out, bad_records == 0, "append log did not read back intact");
  Check(out, libos->pending_ops() == 0, "catfish qtokens pending at the end");
  Check(out, libos->inflight_commands() == 0, "device commands in flight at the end");
  if (!out.errors.empty()) {
    return out;
  }

  const double ops = static_cast<double>(spec.ops);
  m.Sim("p50_us", "us", QuantileUs(lookup_lat, 0.5));
  m.Sim("p99_us", "us", QuantileUs(lookup_lat, 0.99));
  m.Sim("p99_light_us", "us", QuantileUs(light_lat, 0.99));
  LayerWindow w;
  w.Add(a, b);
  m.Sim("cpu_ns_per_op", "ns", Ratio(static_cast<double>(w.busy_ns), ops));
  m.Sim("ops_per_s", "op/s", Ratio(ops * 1e9, static_cast<double>(mixed_sim_ns)));
  m.Host("setup_s", "s", setup_s);
  m.Host("run_s", "s", run_s);
  m.Sim("p999_us", "us", QuantileUs(lookup_lat, 0.999));
  m.Sim("capacity_rps", "req/s", 0);
  m.Sim("goodput_2x_rps", "req/s", 0);
  m.Sim("goodput_4x_rps", "req/s", 0);
  m.Sim("append_p99_us", "us", QuantileUs(append_lat, 0.99));
  m.Sim("cold_p50_us", "us", 0);
  m.Sim("fail_frac", "ratio", Ratio(static_cast<double>(out.failed),
                                    static_cast<double>(out.attempted)));

  LayerMetrics(w, ops, "catfish", m);
  m.Sim("core.libos.pending_after_drain", "count", static_cast<double>(libos->pending_ops()));
  m.Sim("core.smp.shard_imbalance", "ratio", 0);
  Zeros(m, {{"kernel.accepts_per_batch", "count"},
            {"core.policy.promotions", "count"},
            {"core.policy.demotions", "count"},
            {"core.policy.live_flow_slots", "count"},
            {"core.policy.flow_slots_released", "count"},
            {"core.policy.flow_slots_denied", "count"},
            {"core.recovery.failovers", "count"}});
  auto per_op = [&](Counter c) { return Ratio(w.Get(c), ops); };
  const double mixed_lookups = static_cast<double>(lookup_lat.count());
  m.Sim("hw.block.nvme_per_op", "count", per_op(Counter::kNvmeOps));
  m.Sim("hw.block.host_completions_per_op", "count", per_op(Counter::kBlockHostCompletions));
  m.Sim("hw.block.doorbells_per_op", "count", per_op(Counter::kDoorbells));
  m.Sim("hw.block.pushdown_steps_per_lookup", "count",
        Ratio(w.Get(Counter::kPushdownSteps), mixed_lookups));
  m.Sim("hw.block.device_compute_ns_per_lookup", "ns",
        Ratio(w.Get(Counter::kDeviceComputeNs), mixed_lookups));
  m.Host("apps.index.lookup_submit_host_ns", "ns", tr.MedianHostNs("LookupAsync"));
  m.Host("core.catfish.push_submit_host_ns", "ns", tr.MedianHostNs("Push"));
  m.Host("core.libos.wait_any_host_ns", "ns", tr.MedianHostNs("WaitAny"));
  m.Host("apps.index.build_host_s", "s", build_s);
  m.Host("load.ramp_host_s", "s", 0);
  m.Host("load.point_host_s.light", "s", 0);
  m.Host("load.point_host_s.busy", "s", mixed_host_s);
  m.Host("load.point_host_s.2x", "s", 0);
  m.Host("load.point_host_s.4x", "s", 0);
  m.Sim("load.issue_ratio", "ratio", 0);

  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "index keys %zu fanout %zu depth %u; mixed %zu ops at queue depth %zu "
                "(%" PRIu64 " lookups, %" PRIu64 " appends); %zu queue-depth-1 lookups",
                spec.keys, spec.fanout, index->depth(), spec.ops, spec.queue_depth,
                lookups, appends, spec.light_lookups);
  out.notes.push_back(buf);
  std::snprintf(buf, sizeof(buf),
                "lookup latency us: min %.3f p10 %.3f p50 %.3f p90 %.3f p99 %.3f max %.3f",
                Us(lookup_lat.min()), Us(lookup_lat.Quantile(0.1)), Us(lookup_lat.P50()),
                Us(lookup_lat.Quantile(0.9)), Us(lookup_lat.P99()), Us(lookup_lat.max()));
  out.notes.push_back(buf);
  return out;
}

// ---------------------------------------------------------------------------
// churn: F2's policy-on adaptive echo scenario, run long
// ---------------------------------------------------------------------------

// One scenario variant: F2's policy-on configuration with the hot, cold and churn
// periods drawn within +-2% of F2's from the seed. The hot tail hinges on where
// demotions land relative to the churn waves, so one phase alignment is a
// knife-edge; the workload averages several seeded alignments.
AdaptiveHarnessConfig ChurnConfig(bool smoke, std::uint64_t seed, std::uint64_t variant) {
  Rng rng(Mix(seed, 0xc4a7 + variant));
  auto jitter = [&rng](TimeNs base) {
    return static_cast<TimeNs>(static_cast<double>(base) * (0.98 + 0.04 * rng.NextDouble()));
  };
  AdaptiveHarnessConfig cfg;
  cfg.hot_flows = 2;
  cfg.cold_flows = 4;
  cfg.hot_period_ns = jitter(20 * kMicrosecond);
  cfg.cold_period_ns = jitter(2 * kMillisecond);
  cfg.churn_wave_size = 6;
  cfg.churn_period_ns = jitter(3 * kMillisecond);
  cfg.adaptive = true;
  cfg.fastcall = true;
  cfg.max_flow_slots = 6;
  cfg.run_ns = smoke ? 20 * kMillisecond : 120 * kMillisecond;
  // Waves start one period apart from t = period; the last must start before the
  // run ends, or it is never spawned.
  cfg.churn_waves = static_cast<std::size_t>(cfg.run_ns / cfg.churn_period_ns) - 1;
  cfg.seed = Mix(seed, variant);
  return cfg;
}

constexpr std::uint64_t kChurnVariants = 5;

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

RepOutput RunChurn(bool smoke, std::uint64_t seed, Tracer& tr) {
  RepOutput out;
  MetricSet& m = out.metrics;
  // Light: the hot flows alone — no cold flows, no churn waves.
  AdaptiveHarnessConfig light_cfg = ChurnConfig(smoke, seed, kChurnVariants);
  light_cfg.cold_flows = 0;
  light_cfg.churn_waves = 0;
  light_cfg.run_ns /= 2;

  // Building the harnesses takes well under a millisecond, so set-up is repeated
  // and its median reported; the last build is the one that runs.
  constexpr int kSetupRepeats = 9;
  std::vector<double> setup_times;
  std::vector<AdaptiveHarnessConfig> cfgs;
  std::vector<std::unique_ptr<AdaptiveEchoHarness>> hs;
  std::unique_ptr<AdaptiveEchoHarness> light;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    cfgs.clear();
    hs.clear();
    light.reset();
    const auto t_setup = Clock::now();
    Scope setup(tr, "setup", static_cast<std::uint64_t>(rep), nullptr);
    for (std::uint64_t v = 0; v < kChurnVariants; ++v) {
      cfgs.push_back(ChurnConfig(smoke, seed, v));
      Scope build(tr, "AdaptiveEchoHarness", v, nullptr);
      hs.push_back(std::make_unique<AdaptiveEchoHarness>(cfgs.back()));
    }
    Scope build(tr, "AdaptiveEchoHarness", kChurnVariants, nullptr);
    light = std::make_unique<AdaptiveEchoHarness>(light_cfg);
    setup_times.push_back(Seconds(t_setup, Clock::now()));
  }

  const auto t_run = Clock::now();
  LayerWindow w;
  std::vector<AdaptiveScenarioResult> rs;
  AdaptiveScenarioResult lr;
  double main_host_s = 0;
  double light_host_s = 0;
  std::uint64_t client_failovers = 0;
  {
    Scope run(tr, "run", 0, nullptr);
    const auto t_main = Clock::now();
    for (std::uint64_t v = 0; v < kChurnVariants; ++v) {
      AdaptiveEchoHarness& h = *hs[v];
      Simulation& sim = h.harness().sim();
      const LayerSample a = SampleHost(h.server_host(), sim);
      Scope span(tr, "AdaptiveEchoHarness::Run", v, &sim);
      tr.Snapshot(span.index(), "begin", a.cpu);
      rs.push_back(h.Run());
      const LayerSample b = SampleHost(h.server_host(), sim);
      tr.Snapshot(span.index(), "end", b.cpu);
      w.Add(a, b);
      client_failovers += h.client_host().cpu->counters().Get(Counter::kFailovers);
    }
    main_host_s = Seconds(t_main, Clock::now());
    const auto t_light = Clock::now();
    Scope span(tr, "AdaptiveEchoHarness::Run", kChurnVariants, &light->harness().sim());
    lr = light->Run();
    light_host_s = Seconds(t_light, Clock::now());
  }
  const double run_s = Seconds(t_run, Clock::now());

  // Output checks: every churn connection finished its round trip, every flow
  // class completed work, and the harness digests are recorded.
  std::uint64_t completed = 0;
  std::uint64_t churn_attempted = 0;
  std::uint64_t churn_completed = 0;
  std::uint64_t run_ns = 0;
  std::vector<double> hot_p50;
  std::vector<double> hot_p99;
  std::vector<double> cold_p50;
  std::string digests;
  for (std::uint64_t v = 0; v < kChurnVariants; ++v) {
    const AdaptiveScenarioResult& r = rs[v];
    completed += r.hot_completed + r.cold_completed + r.churn_completed;
    churn_attempted += cfgs[v].churn_waves * cfgs[v].churn_wave_size;
    churn_completed += r.churn_completed;
    run_ns += static_cast<std::uint64_t>(cfgs[v].run_ns);
    hot_p50.push_back(Us(r.hot_p50_ns));
    hot_p99.push_back(Us(r.hot_p99_ns));
    cold_p50.push_back(Us(r.cold_p50_ns));
    Check(out, r.hot_completed > 0 && r.cold_completed > 0,
          "a flow class completed nothing");
    out.harness_digest = out.harness_digest * 1099511628211ULL ^ r.digest;
    digests += v == 0 ? "" : " ";
    digests += std::to_string(r.digest);
  }
  Check(out, lr.hot_completed > 0, "the light run completed nothing");
  out.harness_digest = out.harness_digest * 1099511628211ULL ^ lr.digest;
  out.attempted = completed - churn_completed + churn_attempted + lr.hot_completed;
  out.failed = churn_attempted - std::min(churn_attempted, churn_completed);
  Check(out, out.failed == 0, "churn connections did not complete their round trip");
  out.notes.push_back("AdaptiveEchoHarness digests " + digests + "; light run " +
                      std::to_string(lr.digest));
  if (!out.errors.empty()) {
    return out;
  }

  std::uint64_t promotions = 0;
  std::uint64_t demotions = 0;
  std::uint64_t live = 0;
  std::uint64_t released = 0;
  std::uint64_t denied = 0;
  for (const AdaptiveScenarioResult& r : rs) {
    promotions += r.promotions;
    demotions += r.demotions;
    live += r.live_flow_slots;
    released += r.flow_slots_released;
    denied += r.flow_slots_denied;
  }
  const double ops = static_cast<double>(completed);
  // Hot-flow percentiles are per-variant bucket bounds (AdaptiveScenarioResult
  // exports no histogram); the workload reports their mean over the variants.
  m.Sim("p50_us", "us", Mean(hot_p50));
  m.Sim("p99_us", "us", Mean(hot_p99));
  m.Sim("p99_light_us", "us", Us(lr.hot_p99_ns));
  m.Sim("cpu_ns_per_op", "ns", Ratio(static_cast<double>(w.busy_ns), ops));
  m.Sim("ops_per_s", "op/s", Ratio(ops * 1e9, static_cast<double>(run_ns)));
  m.Host("setup_s", "s", Median(setup_times));
  m.Host("run_s", "s", run_s);
  m.Sim("p999_us", "us", 0);  // AdaptiveEchoHarness exports p50/p99 only
  m.Sim("capacity_rps", "req/s", 0);
  m.Sim("goodput_2x_rps", "req/s", 0);
  m.Sim("goodput_4x_rps", "req/s", 0);
  m.Sim("append_p99_us", "us", 0);
  m.Sim("cold_p50_us", "us", Mean(cold_p50));
  m.Sim("fail_frac", "ratio", Ratio(static_cast<double>(out.failed),
                                    static_cast<double>(out.attempted)));

  LayerMetrics(w, ops, "catnip", m);
  m.Sim("core.libos.pending_after_drain", "count", 0);
  m.Sim("core.smp.shard_imbalance", "ratio", 0);
  m.Sim("kernel.accepts_per_batch", "count",
        Ratio(w.Get(Counter::kAcceptsBatched), static_cast<double>(churn_attempted) /
                                                   static_cast<double>(cfgs[0].churn_wave_size)));
  const auto per_variant = static_cast<double>(kChurnVariants);
  m.Sim("core.policy.promotions", "count", static_cast<double>(promotions) / per_variant);
  m.Sim("core.policy.demotions", "count", static_cast<double>(demotions) / per_variant);
  m.Sim("core.policy.live_flow_slots", "count", static_cast<double>(live) / per_variant);
  m.Sim("core.policy.flow_slots_released", "count",
        static_cast<double>(released) / per_variant);
  m.Sim("core.policy.flow_slots_denied", "count", static_cast<double>(denied) / per_variant);
  m.Sim("core.recovery.failovers", "count",
        static_cast<double>(client_failovers + w.cpu.Get(Counter::kFailovers)) / per_variant);
  Zeros(m, {{"hw.block.nvme_per_op", "count"},
            {"hw.block.host_completions_per_op", "count"},
            {"hw.block.doorbells_per_op", "count"},
            {"hw.block.pushdown_steps_per_lookup", "count"},
            {"hw.block.device_compute_ns_per_lookup", "ns"}});
  m.Host("apps.index.lookup_submit_host_ns", "ns", 0);
  m.Host("core.catfish.push_submit_host_ns", "ns", 0);
  m.Host("core.libos.wait_any_host_ns", "ns", 0);
  m.Host("apps.index.build_host_s", "s", 0);
  m.Host("load.ramp_host_s", "s", 0);
  m.Host("load.point_host_s.light", "s", light_host_s);
  m.Host("load.point_host_s.busy", "s", main_host_s);
  m.Host("load.point_host_s.2x", "s", 0);
  m.Host("load.point_host_s.4x", "s", 0);
  m.Sim("load.issue_ratio", "ratio", 0);

  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "%" PRIu64 " variants: %" PRIu64 " completions (%" PRIu64
                " churn); hot p99 per variant us:",
                kChurnVariants, completed, churn_completed);
  std::string line = buf;
  for (const double p : hot_p99) {
    std::snprintf(buf, sizeof(buf), " %.3f", p);
    line += buf;
  }
  std::snprintf(buf, sizeof(buf), "; hot-only p99 %.3f us", Us(lr.hot_p99_ns));
  out.notes.push_back(line + buf);
  return out;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--size") {
      if (v != "full" && v != "smoke") {
        return false;
      }
      a.smoke = v == "smoke";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && (a.workload == "echo" || a.workload == "kv-skew" ||
                             a.workload == "storage" || a.workload == "churn");
}

RepOutput RunOnce(const Args& a, Tracer& tr) {
  if (a.workload == "echo") {
    return RunOpenLoop(EchoSpec(a.smoke), a.seed, tr);
  }
  if (a.workload == "kv-skew") {
    return RunOpenLoop(KvSkewSpec(a.smoke), a.seed, tr);
  }
  if (a.workload == "storage") {
    return RunStorage(StorageSpecFor(a.smoke), a.seed, tr);
  }
  return RunChurn(a.smoke, a.seed, tr);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload echo|kv-skew|storage|churn --seed N "
                 "--seconds S --trace 0|1 [--size full|smoke] [--trace-out FILE]\n");
    return 2;
  }
  const std::string cost_model = CostModel{}.Describe();
  const std::uint64_t cost_fnv = Fnv(kFnvBasis, cost_model.data(), cost_model.size());

  // Repetitions: untraced ones give the end-to-end figures; with --trace 1 every
  // second repetition is traced and gives the per-layer figures.
  const std::size_t min_untraced = args.trace ? 2 : 3;
  const std::size_t min_traced = args.trace ? 2 : 0;
  constexpr std::size_t kMaxReps = 40;
  constexpr double kHardStopS = 150;  // never start a repetition past this

  std::vector<RepOutput> untraced;
  std::vector<RepOutput> traced;
  std::unique_ptr<Tracer> last_trace;
  std::vector<std::string> errors;
  const auto start = Clock::now();
  double longest_rep = 0;
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    const double elapsed = Seconds(start, Clock::now());
    const bool minimum_met = untraced.size() >= min_untraced && traced.size() >= min_traced;
    if (minimum_met && elapsed >= args.seconds) {
      break;
    }
    if (elapsed + longest_rep > kHardStopS) {
      errors.push_back("host time budget exhausted before the minimum repetitions");
      break;
    }
    const bool trace_this = args.trace && rep % 2 == 1;
    auto tracer = std::make_unique<Tracer>(trace_this);
    const auto t0 = Clock::now();
    RepOutput r = RunOnce(args, *tracer);
    longest_rep = std::max(longest_rep, Seconds(t0, Clock::now()));
    for (const Metric& mt : r.metrics.items()) {
      if (mt.name == "setup_s" || mt.name == "run_s") {
        std::fprintf(stderr, "rep %zu%s %s %.4f\n", rep, trace_this ? " traced" : "",
                     mt.name.c_str(), mt.value);
      }
    }
    for (const std::string& e : r.errors) {
      errors.push_back(e);
    }
    if (!r.errors.empty()) {
      (trace_this ? traced : untraced).push_back(std::move(r));
      break;
    }
    if (trace_this) {
      traced.push_back(std::move(r));
      last_trace = std::move(tracer);
    } else {
      untraced.push_back(std::move(r));
    }
  }

  // Determinism: every repetition, traced or not, must reproduce the same sim
  // metrics bit-for-bit.
  std::vector<const RepOutput*> all;
  for (const RepOutput& r : untraced) {
    all.push_back(&r);
  }
  for (const RepOutput& r : traced) {
    all.push_back(&r);
  }
  if (all.empty()) {
    errors.push_back("no repetition ran");
  }
  auto digest_of = [](const RepOutput& r) {
    return r.metrics.SimDigest() ^ (r.harness_digest * 0x9e3779b97f4a7c15ULL);
  };
  const std::uint64_t digest = all.empty() ? 0 : digest_of(*all[0]);
  for (const RepOutput* r : all) {
    if (errors.empty() && digest_of(*r) != digest) {
      errors.push_back("sim metrics differ between same-seed repetitions");
      break;
    }
  }

  // Host metrics: medians over the repetitions of each kind; sim metrics: rep 0.
  std::vector<Metric> metrics;
  auto host_median = [](const std::vector<RepOutput>& reps, std::size_t i) {
    std::vector<double> v;
    for (const RepOutput& r : reps) {
      if (i < r.metrics.items().size()) {
        v.push_back(r.metrics.items()[i].value);
      }
    }
    return Median(v);
  };
  if (errors.empty()) {
    const std::vector<RepOutput>& base = untraced.empty() ? traced : untraced;
    for (std::size_t i = 0; i < base[0].metrics.items().size(); ++i) {
      Metric mt = base[0].metrics.items()[i];
      if (!mt.sim) {
        mt.value = host_median(untraced, i);
        if (!traced.empty() && mt.name != "setup_s" && mt.name != "run_s") {
          mt.value = host_median(traced, i);  // per-layer host figures: traced reps
        }
      }
      metrics.push_back(mt);
    }
    if (!traced.empty()) {
      const std::vector<Metric>& t = traced[0].metrics.items();
      std::size_t run_idx = 0;
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].name == "run_s") {
          run_idx = i;
        }
      }
      const double traced_run = host_median(traced, run_idx);
      const double untraced_run = host_median(untraced, run_idx);
      metrics.push_back(Metric{"trace.run_s", "s", false, traced_run});
      metrics.push_back(
          Metric{"trace.overhead_frac", "ratio", false, Ratio(traced_run, untraced_run) - 1});
      metrics.push_back(Metric{"trace.spans", "count", true,
                               static_cast<double>(last_trace->span_count())});
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  metrics.push_back(
      Metric{"max_rss_mb", "MB", false, static_cast<double>(usage.ru_maxrss) / 1024.0});

  const RepOutput* first = all.empty() ? nullptr : all[0];
  if (last_trace && !args.trace_out.empty()) {
    const std::string header = "\"workload\": " + JsonString(args.workload) +
                               ", \"seed\": " + std::to_string(args.seed) +
                               ", \"cost_model_fnv1a\": \"" + std::to_string(cost_fnv) +
                               "\", \"cost_model\": " + JsonString(cost_model);
    if (!last_trace->Write(args.trace_out, header)) {
      errors.push_back("could not write the trace file");
    }
  }

  std::string j = "{\"workload\": " + JsonString(args.workload);
  j += ", \"seed\": " + std::to_string(args.seed);
  j += ", \"size\": " + JsonString(args.smoke ? "smoke" : "full");
  j += ", \"reps_untraced\": " + std::to_string(untraced.size());
  j += ", \"reps_traced\": " + std::to_string(traced.size());
  j += ", \"sim_digest\": \"" + std::to_string(digest) + "\"";
  j += ", \"cost_model_fnv1a\": \"" + std::to_string(cost_fnv) + "\"";
  j += ", \"cost_model\": " + JsonString(cost_model);
  j += ", \"attempted\": " + std::to_string(first ? first->attempted : 0);
  j += ", \"failed\": " + std::to_string(first ? first->failed : 0);
  j += ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    j += (i ? ", " : "") + JsonString(errors[i]);
  }
  j += "], \"notes\": [";
  if (first != nullptr) {
    for (std::size_t i = 0; i < first->notes.size(); ++i) {
      j += (i ? ", " : "") + JsonString(first->notes[i]);
    }
  }
  j += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& mt = metrics[i];
    j += (i ? ", " : "") + JsonString(mt.name) + ": {\"value\": " + Num(mt.value) +
         ", \"unit\": " + JsonString(mt.unit) + ", \"clock\": \"" +
         (mt.sim ? "sim" : "host") + "\"}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace demi::perfbench

int main(int argc, char** argv) { return demi::perfbench::Main(argc, argv); }
