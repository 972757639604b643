// Unit tests for the hierarchical timer wheel (src/sim/timer_wheel.h): level
// placement and cascading, cancel-after-reschedule, far-future clamping, zero-delay
// events, and a seeded test that drives 100k random schedule/cancel operations
// through a Simulation and requires the firing order and virtual timestamps to
// match a sorted reference list of the timers that were never cancelled.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/random.h"
#include "src/sim/simulation.h"
#include "src/sim/timer_wheel.h"

namespace demi {
namespace {

SchedEntry E(TimeNs due, std::uint64_t seq) { return SchedEntry{due, seq, seq}; }

TEST(TimerWheelTest, PopsInDueThenSeqOrder) {
  TimerWheel wheel;
  wheel.Push(E(300, 1));
  wheel.Push(E(100, 2));
  wheel.Push(E(100, 3));
  wheel.Push(E(200, 4));
  std::vector<std::uint64_t> order;
  while (!wheel.empty()) {
    order.push_back(wheel.Pop().seq);
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3, 4, 1}));
}

TEST(TimerWheelTest, EntriesLandOnTheExpectedLevel) {
  TimerWheel wheel;
  const TimeNs tick = TimeNs{1} << TimerWheel::kResBits;  // 64 ns
  EXPECT_EQ(wheel.LevelFor(0), -1);                       // already due
  EXPECT_EQ(wheel.LevelFor(tick), 0);
  EXPECT_EQ(wheel.LevelFor(255 * tick), 0);
  EXPECT_EQ(wheel.LevelFor(256 * tick), 1);               // beyond level 0's span
  EXPECT_EQ(wheel.LevelFor(65535 * tick), 1);
  EXPECT_EQ(wheel.LevelFor(65536 * tick), 2);
  EXPECT_EQ(wheel.LevelFor(kSecond), 2);                  // ~15.6M ticks < 256^3
}

TEST(TimerWheelTest, CascadeAcrossLevelsPreservesExactDueTimes) {
  // Entries spread over several levels; popping must yield exact due order even
  // though the high-level slots only bucket them coarsely until cascade.
  TimerWheel wheel;
  std::vector<TimeNs> dues = {50,        1000,     64 * 300,  64 * 70000,
                              kSecond,   3 * kSecond, 64 * 299, 64 * 65536 + 7};
  std::uint64_t seq = 1;
  for (TimeNs d : dues) {
    wheel.Push(E(d, seq++));
  }
  std::vector<TimeNs> sorted = dues;
  std::sort(sorted.begin(), sorted.end());
  for (TimeNs expect : sorted) {
    ASSERT_FALSE(wheel.empty());
    EXPECT_EQ(wheel.Pop().due, expect);
  }
  EXPECT_TRUE(wheel.empty());
  EXPECT_GT(wheel.cascades(), 0u);  // the spread above must have exercised cascade
}

TEST(TimerWheelTest, LateInsertBehindHigherLevelSlotStillFiresFirst) {
  // Regression shape for the jump hazard: after the wheel has advanced, a
  // higher-level slot can cover lower ticks than a newly inserted level-0 entry.
  TimerWheel wheel;
  wheel.Push(E(64 * 1000, 1));  // level 1 from tick 0
  wheel.Push(E(64 * 2, 2));     // level 0
  EXPECT_EQ(wheel.Pop().seq, 2u);  // advances wheel near tick 2
  wheel.Push(E(64 * 1100, 3));     // level 1, past the first entry
  EXPECT_EQ(wheel.Pop().seq, 1u);
  EXPECT_EQ(wheel.Pop().seq, 3u);
}

TEST(TimerWheelTest, FarFutureTimerBeyondHorizonStillFiresAtExactTime) {
  Simulation sim;
  // ~146 years of ns: past the wheel's 7-level horizon (2^56 ticks of 64 ns), so
  // this exercises the clamp + re-cascade path.
  const TimeNs far = TimeNs{1} << 62;
  TimeNs fired_at = -1;
  sim.Schedule(far, [&] { fired_at = sim.now(); });
  bool early = false;
  sim.Schedule(100, [&] { early = true; });
  while (sim.StepOnce()) {
  }
  EXPECT_TRUE(early);
  EXPECT_EQ(fired_at, far);
}

TEST(TimerWheelTest, TimersAtAndBeyondTheExactHorizonFireAtExactTimes) {
  // The 7 levels x 8 slot bits + 6 resolution bits cover exactly 2^62 ns. Pin
  // the edge: the last due inside the horizon, the first beyond it, and one far
  // past it must all fire at their exact virtual times in due order.
  const TimeNs tick = TimeNs{1} << TimerWheel::kResBits;
  const TimeNs horizon = TimeNs{1}
                         << (TimerWheel::kResBits +
                             TimerWheel::kSlotBits * TimerWheel::kLevels);
  ASSERT_EQ(horizon, TimeNs{1} << 62);

  Simulation sim;
  std::vector<std::pair<TimeNs, TimeNs>> fired;  // (due, actual)
  for (const TimeNs due : {horizon - tick, horizon, horizon + tick,
                           horizon + (TimeNs{1} << 40) + 7}) {
    sim.Schedule(due, [&fired, &sim, due] { fired.emplace_back(due, sim.now()); });
  }
  while (sim.StepOnce()) {
  }
  ASSERT_EQ(fired.size(), 4u);
  TimeNs prev = -1;
  for (const auto& [due, at] : fired) {
    EXPECT_EQ(at, due);
    EXPECT_GT(at, prev);  // due order preserved across the clamp + re-cascade
    prev = at;
  }
}

TEST(TimerWheelTest, CancelAfterCascadeStillSilencesTheTimer) {
  // A level-1 entry cascades into level 0 when the cursor crosses the 256-tick
  // boundary; cancelling it AFTER that migration must still prevent the firing.
  Simulation sim;
  bool far_fired = false;
  bool near_fired = false;
  const TimerId far = sim.Schedule(64 * 500, [&] { far_fired = true; });  // level 1
  sim.Schedule(64 * 260, [&] { near_fired = true; });                     // level 1
  // Run exactly until the near timer fires: the wheel cursor is now at tick 260,
  // past the 256 boundary, so the far entry has cascaded down.
  ASSERT_TRUE(sim.RunUntil([&] { return near_fired; }, 64 * 300));
  ASSERT_FALSE(far_fired);
  sim.Cancel(far);
  sim.RunFor(64 * 1000);
  EXPECT_FALSE(far_fired);
}

TEST(TimerWheelTest, ReArmInsideFiringCallbackKeepsExactPeriod) {
  // A timer that re-schedules itself from inside its own dispatch (the TCP RTO
  // idiom) must tick at the exact period.
  Simulation sim;
  std::vector<TimeNs> fires;
  std::function<void()> tick = [&] {
    fires.push_back(sim.now());
    if (fires.size() < 5) {
      sim.Schedule(1000, tick);
    }
  };
  sim.Schedule(1000, tick);
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(fires, (std::vector<TimeNs>{1000, 2000, 3000, 4000, 5000}));
}

TEST(TimerWheelTest, ZeroDelayTimersRunThisStepInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.Schedule(0, [&] {
    order.push_back(1);
    sim.Schedule(0, [&] { order.push_back(2); });  // zero-delay from inside dispatch
  });
  sim.Schedule(0, [&] { order.push_back(3); });
  sim.RunDue();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(sim.now(), 0);
}

TEST(TimerWheelTest, CancelAfterReschedulePreservesOnlyTheLiveTimer) {
  Simulation sim;
  int fired = 0;
  const TimerId a = sim.Schedule(100, [&] { fired += 1; });
  sim.Cancel(a);
  const TimerId b = sim.Schedule(100, [&] { fired += 10; });  // reuses a's slot
  sim.Cancel(a);  // stale id: must not kill b (generation check)
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(fired, 10);
  sim.Cancel(b);  // already fired: no-op, no crash
}

TEST(TimerWheelTest, CancelledEntriesDoNotPerturbIdleJumps) {
  Simulation sim;
  const TimerId a = sim.Schedule(100, [] {});
  const TimerId b = sim.Schedule(200, [] {});
  TimeNs fired_at = -1;
  sim.Schedule(300, [&] { fired_at = sim.now(); });
  sim.Cancel(a);
  sim.Cancel(b);
  while (sim.StepOnce()) {
  }
  EXPECT_EQ(fired_at, 300);
  EXPECT_EQ(sim.now(), 300);
}

// 100k randomized schedule/cancel operations against a reference the test keeps
// itself: every timer that was never cancelled must fire exactly once, at its exact
// due time, in (due, schedule order) order — the contract the scheduler promises.
TEST(TimerWheelDifferentialTest, MatchesSortedReferenceOver100kRandomOps) {
  constexpr int kOps = 100000;
  for (const std::uint64_t seed : {1ull, 42ull, 0xdeadbeefull}) {
    Simulation sim;
    Rng rng(seed);
    struct Armed {
      TimeNs due;
      TimerId id;
      bool fired = false;
      bool cancelled = false;
    };
    std::vector<Armed> armed;                               // indexed by label
    std::vector<std::pair<TimeNs, std::uint64_t>> fired;    // (now, label)
    std::vector<std::uint64_t> live;                        // labels still cancellable
    for (int i = 0; i < kOps; ++i) {
      const std::uint64_t roll = rng.NextBelow(100);
      if (roll < 55 || live.empty()) {
        // Schedule with a delay profile spanning every wheel level: mostly short
        // RTO-like delays, a tail of far-future ones.
        TimeNs delay;
        switch (rng.NextBelow(5)) {
          case 0: delay = static_cast<TimeNs>(rng.NextBelow(64)); break;       // sub-tick
          case 1: delay = static_cast<TimeNs>(rng.NextBelow(10'000)); break;   // level 0
          case 2: delay = static_cast<TimeNs>(rng.NextBelow(1'000'000)); break;
          case 3: delay = static_cast<TimeNs>(rng.NextBelow(kSecond)); break;
          default: delay = static_cast<TimeNs>(rng.NextBelow(600 * kSecond)); break;
        }
        const std::uint64_t label = armed.size();
        const TimeNs due = sim.now() + delay;
        const TimerId id = sim.Schedule(delay, [&fired, &armed, &sim, label] {
          armed[label].fired = true;
          fired.emplace_back(sim.now(), label);
        });
        armed.push_back(Armed{due, id});
        live.push_back(label);
      } else if (roll < 80) {
        // Cancel a random timer. It may already have fired: then the id is stale,
        // Cancel must be a no-op, and the timer stays in the reference.
        const std::size_t pick = rng.NextBelow(live.size());
        Armed& a = armed[live[pick]];
        sim.Cancel(a.id);
        a.cancelled = !a.fired;
        live[pick] = live.back();
        live.pop_back();
      } else {
        // Let the simulation advance a few events to interleave dispatch with
        // scheduling (this is where wheel cascades happen mid-stream).
        sim.RunDue();
        sim.StepOnce();
      }
    }
    while (sim.StepOnce()) {
    }

    std::vector<std::pair<TimeNs, std::uint64_t>> expected;
    for (std::uint64_t label = 0; label < armed.size(); ++label) {
      if (!armed[label].cancelled) {
        expected.emplace_back(armed[label].due, label);
      }
    }
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(fired.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < fired.size(); ++i) {
      ASSERT_EQ(fired[i], expected[i]) << "diverged at event " << i << " (seed " << seed
                                       << ")";
    }
    // With no pollers the clock only ever lands on a live timer's due time.
    EXPECT_EQ(sim.now(), expected.empty() ? 0 : expected.back().first) << "seed " << seed;
    EXPECT_EQ(sim.pending_events(), 0u) << "seed " << seed;
  }
}

// Determinism of the wheel against itself: two identical runs, bitwise-equal traces.
TEST(TimerWheelDifferentialTest, WheelRunsAreBitDeterministic) {
  auto run = [] {
    Simulation sim;
    Rng rng(7);
    std::vector<TimeNs> stamps;
    for (int i = 0; i < 5000; ++i) {
      sim.Schedule(static_cast<TimeNs>(rng.NextBelow(2 * kMillisecond)),
                   [&] { stamps.push_back(sim.now()); });
    }
    while (sim.StepOnce()) {
    }
    return stamps;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace demi
