// Hierarchical timer wheel: the O(1) scheduler behind Simulation.
//
// Motivation (ISSUE 6): an open-loop run with 10^6 connections keeps on the order of
// a million timers pending at once (per-connection retransmit, delayed-ack and
// arrival timers). A binary heap pays O(log n) per schedule/cancel with cache-hostile
// sift paths; a timer wheel pays a few stores. Cancel was already O(1) (tombstoned
// callback slots, see simulation.h), so the wheel makes the whole timer lifecycle
// flat.
//
// Layout: 7 levels of 256 slots at 64 ns resolution (kResBits); level l spans
// 256^(l+1) ticks, so the wheel covers ~2^62 ns — beyond-horizon timers are clamped
// into the farthest top-level slot and re-cascade on arrival. Each slot is an
// intrusive singly-linked list of pooled 32-byte nodes with a per-level occupancy
// bitmap, so finding the next non-empty slot is a word scan, not a list walk.
//
// Determinism: pop order is exactly (due, seq) — seq is the global schedule order,
// so same-time events run in the order they were scheduled — and Peek() returns
// the exact earliest entry, so idle jumps land the clock on the exact due times.
// Entries keep their exact due time (the 64 ns tick only buckets them); all
// entries of the next due tick are moved into a `ready_` staging buffer and sorted
// by (due, seq), which restores the global order because distinct ticks never
// interleave and seq breaks ties within one. tests/sim_timer_wheel_test.cc checks
// this against a sorted reference over 100k random schedule/cancel operations.
//
// Advancing jumps straight to the next occupied slot rather than ticking through
// empty ones. A jump must not trust level 0 alone: a higher-level slot can cover
// lower absolute ticks than the nearest level-0 entry once the cursor has moved (its
// range starts below the level-0 candidate), so the refill loop compares the exact
// level-0 tick against every higher level's nearest slot base and cascades the
// smaller — including slots the advancing cursor has come to share a prefix with.

#ifndef SRC_SIM_TIMER_WHEEL_H_
#define SRC_SIM_TIMER_WHEEL_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace demi {

// Opaque handle for cancelling a scheduled event: (slot generation << 32) | slot.
using TimerId = std::uint64_t;
constexpr TimerId kInvalidTimer = 0;

// What the wheel orders. The event callback itself lives in Simulation's pooled
// side table, so entries stay trivially copyable.
struct SchedEntry {
  TimeNs due;
  std::uint64_t seq;  // tie-break: same-time events run in schedule order
  TimerId id;
};

class TimerWheel {
 public:
  static constexpr int kResBits = 6;   // 64 ns per tick
  static constexpr int kSlotBits = 8;  // 256 slots per level
  static constexpr int kLevels = 7;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;

  TimerWheel();

  void Push(const SchedEntry& e);
  // Earliest entry by (due, seq), or nullptr when empty. The pointer is invalidated
  // by the next Push/Pop.
  const SchedEntry* Peek();
  // Removes and returns the earliest entry. Precondition: not empty.
  SchedEntry Pop();
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // Test introspection: the level an entry with this due time would land on if
  // pushed right now (-1 = the already-due ready buffer).
  int LevelFor(TimeNs due) const;
  std::uint64_t cascades() const { return cascades_; }

 private:
  using Tick = std::uint64_t;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;

  struct Node {
    SchedEntry entry;
    std::uint32_t next;
  };

  static Tick TickOf(TimeNs due) { return static_cast<Tick>(due) >> kResBits; }
  Tick CursorAt(int level) const { return wheel_tick_ >> (kSlotBits * level); }

  std::uint32_t AllocNode(const SchedEntry& e);
  void FreeNode(std::uint32_t idx);

  // Chooses (level, slot) for a tick strictly ahead of wheel_tick_ and links a node
  // there. Does not touch size_/wheel_count_.
  void PlaceInWheel(const SchedEntry& e);
  // Sorted insert into the ready staging buffer (position is always >= ready_pos_,
  // because due >= now >= every already-popped due and seq grows monotonically).
  void InsertReady(const SchedEntry& e);
  // Detaches a slot's list and clears its occupancy bit; returns the head node.
  std::uint32_t DetachSlot(int level, std::size_t slot);
  // Modular distance in [min_dist, 255] from this level's cursor to the nearest
  // occupied slot, or -1 if none in that range.
  int NearestOccupied(int level, int min_dist) const;
  // Moves the entries of the next due tick into ready_. False if the wheel is empty.
  bool RefillReady();

  std::vector<Node> pool_;
  std::uint32_t free_head_ = kNil;
  Tick wheel_tick_ = 0;          // tick whose entries were last staged into ready_
  std::size_t size_ = 0;         // total pending (wheel + unconsumed ready)
  std::size_t wheel_count_ = 0;  // entries still linked into wheel slots
  std::uint64_t cascades_ = 0;
  std::array<std::array<std::uint32_t, kSlots>, kLevels> heads_;
  std::array<std::array<std::uint64_t, kSlots / 64>, kLevels> occupied_{};
  std::vector<SchedEntry> ready_;
  std::size_t ready_pos_ = 0;
};

}  // namespace demi

#endif  // SRC_SIM_TIMER_WHEEL_H_
