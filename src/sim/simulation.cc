#include "src/sim/simulation.h"

#include <algorithm>

namespace demi {

Simulation::Simulation(CostModel cost) : cost_(cost), cores_(1) {}

void Simulation::ConfigureCores(int n) {
  DEMI_CHECK(n >= 1);
  while (num_cores() < n) {
    cores_.emplace_back();
    cores_.back().metrics->set_enabled(Core(0).metrics->enabled());
  }
}

MetricsRegistry& Simulation::metrics(int core) {
  DEMI_CHECK(core >= 0 && core < num_cores());
  return *Core(core).metrics;
}

void Simulation::SetMetricsEnabled(bool enabled) {
  for (CoreCtx& ctx : cores_) {
    ctx.metrics->set_enabled(enabled);
  }
}

MetricsSnapshot Simulation::MergedSnapshot() {
  MetricsSnapshot snap = Core(0).metrics->Snapshot(counters_, now_);
  // Counters are simulation-global and appear exactly once (from the snapshot
  // above); only the other cores' histograms and traces need folding in.
  for (int core = 1; core < num_cores(); ++core) {
    Core(core).metrics->MergeHistogramsInto(snap);
  }
  std::stable_sort(snap.trace.begin(), snap.trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
  return snap;
}

TimeNs Simulation::core_busy_until(int core) const {
  if (core == 0) {
    return now_;
  }
  DEMI_CHECK(core > 0 && core < num_cores());
  return Core(core).busy_until;
}

int Simulation::SetHomeCore(int core) {
  DEMI_CHECK(core >= 0 && core < num_cores());
  const int prev = home_core_;
  home_core_ = core;
  return prev;
}

TimerId Simulation::Schedule(TimeNs delay, std::function<void()> fn) {
  return ScheduleAt(now_ + std::max<TimeNs>(delay, 0), std::move(fn));
}

TimerId Simulation::ScheduleAt(TimeNs when, std::function<void()> fn) {
  const int core = current_core_ != 0 ? current_core_ : home_core_;
  return ScheduleAtOn(core, when, std::move(fn));
}

TimerId Simulation::ScheduleOn(int core, TimeNs delay, std::function<void()> fn) {
  return ScheduleAtOn(core, now_ + std::max<TimeNs>(delay, 0), std::move(fn));
}

TimerId Simulation::ScheduleAtOn(int core, TimeNs when, std::function<void()> fn) {
  DEMI_CHECK(core >= 0 && core < num_cores());
  ++schedule_calls_;
  const TimerId id = AllocSlot(std::move(fn));
  Core(core).events.Push(SchedEntry{std::max(when, now_), next_seq_++, id});
  return id;
}

TimerId Simulation::AllocSlot(std::function<void()> fn) {
  std::uint32_t slot;
  if (!free_fn_slots_.empty()) {
    slot = free_fn_slots_.back();
    free_fn_slots_.pop_back();
    event_fns_[slot].fn = std::move(fn);
  } else {
    slot = static_cast<std::uint32_t>(event_fns_.size());
    event_fns_.push_back(FnSlot{std::move(fn), 1});
  }
  return static_cast<TimerId>(event_fns_[slot].gen) << 32 | slot;
}

std::function<void()> Simulation::TakeSlot(std::uint32_t slot) {
  FnSlot& s = event_fns_[slot];
  std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;  // drop captures now, not at slot reuse
  if (++s.gen == 0) {
    s.gen = 1;  // gen 0 + slot 0 would collide with kInvalidTimer
  }
  free_fn_slots_.push_back(slot);
  return fn;
}

void Simulation::Cancel(TimerId id) {
  if (id == kInvalidTimer) {
    return;
  }
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= event_fns_.size()) {
    return;
  }
  FnSlot& s = event_fns_[slot];
  if (s.gen != gen || !s.fn) {
    return;  // already fired, slot reused, or already cancelled
  }
  s.fn = nullptr;  // tombstone: the wheel entry pops as a no-op at its due time
  ++cancelled_count_;
}

void Simulation::AddPoller(Poller* poller) {
  AddPollerOn(current_core_ != 0 ? current_core_ : home_core_, poller);
}

void Simulation::AddPollerOn(int core, Poller* poller) {
  DEMI_CHECK(poller != nullptr);
  DEMI_CHECK(core >= 0 && core < num_cores());
  Core(core).pollers.push_back(poller);
}

void Simulation::RemovePoller(Poller* poller) {
  for (CoreCtx& ctx : cores_) {
    ctx.pollers.erase(std::remove(ctx.pollers.begin(), ctx.pollers.end(), poller),
                      ctx.pollers.end());
  }
}

bool Simulation::idle() const {
  return std::all_of(cores_.begin(), cores_.end(),
                     [](const CoreCtx& ctx) { return ctx.events.empty(); });
}

std::size_t Simulation::pending_events() const {
  std::size_t total = 0;
  for (const CoreCtx& ctx : cores_) {
    total += ctx.events.size();
  }
  return total - cancelled_count_;
}

int Simulation::EarliestCore() {
  int best = -1;
  const SchedEntry* best_top = nullptr;
  for (int core = 0; core < num_cores(); ++core) {
    TimerWheel& queue = Core(core).events;
    // Release cancelled tombstones at the head so they neither win the comparison
    // nor linger as phantom next-event times for the idle jump.
    const SchedEntry* top;
    while ((top = queue.Peek()) != nullptr &&
           !event_fns_[static_cast<std::uint32_t>(top->id)].fn) {
      TakeSlot(static_cast<std::uint32_t>(top->id));
      --cancelled_count_;
      queue.Pop();
    }
    if (top == nullptr) {
      continue;
    }
    if (best_top == nullptr || top->due < best_top->due ||
        (top->due == best_top->due && top->seq < best_top->seq)) {
      best = core;
      best_top = top;
    }
  }
  return best;
}

void Simulation::RunInBubble(int core, const std::function<void()>& fn) {
  const TimeNs saved = now_;
  const int prev_core = current_core_;
  current_core_ = core;
  fn();
  current_core_ = prev_core;
  TimeNs& busy_until = Core(core).busy_until;
  busy_until = std::max(busy_until, now_);
  now_ = saved;
}

bool Simulation::RunDue() {
  std::uint64_t ran = 0;
  while (true) {
    const int core = EarliestCore();
    if (core < 0) {
      break;
    }
    TimerWheel& queue = Core(core).events;
    if (queue.Peek()->due > now_) {
      break;
    }
    const SchedEntry ev = queue.Pop();
    // Take the callback out of the pool before running it: it may reschedule
    // (growing the pool), and a cancelled slot (null fn) must be released too.
    std::function<void()> fn = TakeSlot(static_cast<std::uint32_t>(ev.id));
    if (!fn) {
      --cancelled_count_;
      continue;
    }
    ++ran;
    if (core == 0) {
      fn();
    } else {
      // The event runs in its core's context at the global due time: device-side
      // completions (which charge no CPU) keep their exact timing, while CPU an
      // event callback does charge extends the core's busy horizon from here —
      // interrupt-style preemption rather than queueing behind the poll loop.
      RunInBubble(core, fn);
    }
  }
  if (ran > 0) {
    Core(0).metrics->RecordStat(SimStat::kDispatchBatch, ran);
  }
  return ran > 0;
}

bool Simulation::PollCore(int core) {
  bool progress = false;
  for (std::size_t i = 0; i < Core(core).pollers.size(); ++i) {
    progress |= Core(core).pollers[i]->Poll();
  }
  return progress;
}

bool Simulation::StepOnce() {
  DEMI_CHECK(!in_step_ && "blocking waits may not nest inside Poller::Poll");
  in_step_ = true;
  // Simulation-wide step statistics live in core 0's registry. The registry sits
  // behind a pointer, so this reference survives ConfigureCores during polling.
  MetricsRegistry& stats = *Core(0).metrics;
  stats.RecordStat(SimStat::kSchedHeapDepth, pending_events());
  const TimeNs poll_start = now_;
  // Core 0 polls first, outside any bubble: its work advances the global clock.
  bool progress = PollCore(0);
  // Bubble cores, in fixed index order (the deterministic interleaving rule): a
  // core polls only once the global clock has caught up with its busy horizon, and
  // the clock advance its poll causes becomes the new horizon.
  for (int core = 1; core < num_cores(); ++core) {
    if (Core(core).pollers.empty() || now_ < Core(core).busy_until) {
      continue;
    }
    bool core_progress = false;
    RunInBubble(core, [&] { core_progress = PollCore(core); });
    progress |= core_progress;
  }
  const TimeNs dispatch_start = now_;
  stats.RecordStat(SimStat::kStepPollNs,
                   static_cast<std::uint64_t>(dispatch_start - poll_start));
  progress |= RunDue();
  stats.RecordStat(SimStat::kStepDispatchNs,
                   static_cast<std::uint64_t>(now_ - dispatch_start));
  in_step_ = false;
  if (progress) {
    return true;
  }
  // Nothing runnable now: jump to the next wakeup. Candidates are the earliest
  // scheduled event across all cores and the nearest busy horizon of a core that
  // still has pollers waiting to run (its next poll is the wakeup).
  const int core = EarliestCore();
  TimeNs target = -1;
  if (core >= 0) {
    target = Core(core).events.Peek()->due;
  }
  for (int c = 1; c < num_cores(); ++c) {
    const CoreCtx& ctx = Core(c);
    if (!ctx.pollers.empty() && ctx.busy_until > now_ &&
        (target < 0 || ctx.busy_until < target)) {
      target = ctx.busy_until;
    }
  }
  if (target < 0) {
    return false;  // completely idle
  }
  if (target > now_) {
    stats.RecordStat(SimStat::kIdleJumpNs, static_cast<std::uint64_t>(target - now_));
  }
  now_ = std::max(now_, target);
  RunDue();
  return true;  // time advanced (and/or events ran): the next step can make progress
}

bool Simulation::RunUntil(const std::function<bool()>& pred, TimeNs deadline) {
  while (!pred()) {
    if (now_ > deadline) {
      return false;
    }
    if (!StepOnce()) {
      return pred();
    }
  }
  return true;
}

void Simulation::RunFor(TimeNs duration) {
  const TimeNs end = now_ + duration;
  while (now_ < end) {
    if (!StepOnce()) {
      now_ = end;  // idle: nothing will ever happen; just advance time.
      return;
    }
  }
}

}  // namespace demi
