#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace ks::sim {

/// Opaque handle to a wheel timer. Like sim::EventId it packs
/// (sequence, slot): the sequence is globally monotonic, so a stale id can
/// never resolve to a recycled slot — Cancel() on a fired, cancelled, or
/// invalidated timer is a correct O(1) no-op.
using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Quantized timer set multiplexing many timers onto ONE pending
/// simulation event.
///
/// The engine's heap already makes individual timers cheap; what it cannot
/// do is make N timers cost less than N events. Components with per-entity
/// deadlines (the token backend's per-container renewals, per-device
/// re-evaluation polls) each used to keep a private pending event; a
/// 64-container node was worth hundreds of heap pushes per simulated
/// second. The wheel batches them: deadlines are quantized UP to a tick
/// grid (`tick` — the coalescing window), same-tick timers fire from a
/// single engine event, and the wheel keeps exactly one event armed.
///
/// Semantics:
///  - a timer scheduled for time T (clamped to now) fires at tick
///    max(ceil(T / tick), current tick) — with tick <= 1us the wheel is
///    exact, since sim::Time has microsecond resolution;
///  - the armed event targets the earliest deadline and moves only when a
///    new deadline is strictly earlier; cancelling the last timer
///    disarms the wheel, while cancelling the earliest of several leaves
///    the armed event in place (that tick fires nothing and re-arms);
///  - a tick fires every due timer ordered by (requested time, insertion
///    order), matching the engine's own FIFO tie-break, so a component
///    ported from raw events keeps its event ordering whenever its
///    deadlines land on the grid;
///  - callbacks may schedule and cancel freely, including new timers due
///    at the instant currently firing (they fire after every timer already
///    due, in the same tick);
///  - InvalidateAll() drops every pending timer at once (the token
///    backend's restart path: nothing from the old incarnation may fire
///    into the new one).
///
/// Layout: one binary min-heap of (deadline tick, requested time, id)
/// entries — a total order, since ids are unique — next to a slot arena
/// holding the callbacks. Cancel() is lazy: an entry is live while its
/// slot still carries its id, and dead entries are skipped when they
/// surface. The heap is emptied when the last timer goes and compacted
/// once it holds more than 2 x pending() + 64 entries, so its size stays
/// bounded by the live count however long the cancel churn runs.
class TimerWheel {
 public:
  /// `tick` is the quantization grid (coalescing window). Values <= 1us
  /// (including zero) make the wheel exact.
  TimerWheel(Simulation* sim, Duration tick);
  ~TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  TimerId ScheduleAt(Time t, EventCallback fn);
  TimerId ScheduleAfter(Duration delay, EventCallback fn);

  /// Cancels a pending timer. Safe on ids that already fired, were
  /// cancelled, or were invalidated (returns false). When the last live
  /// timer is cancelled the armed engine event is released too, so an
  /// idle wheel contributes zero pending events.
  bool Cancel(TimerId id);

  /// Drops every pending timer and disarms the wheel. Outstanding ids all
  /// become stale (the generation stamp guarantees a later Cancel or fire
  /// cannot touch a recycled slot). Returns the number of timers dropped.
  std::size_t InvalidateAll();

  /// The instant a timer requested for `t` will actually fire.
  Time QuantizeUp(Time t) const;
  Duration tick() const { return Duration{tick_us_}; }

  std::size_t pending() const { return live_; }
  bool armed() const { return armed_event_ != kInvalidEvent; }
  /// Heap entries held, live and cancelled (observability and the
  /// bounded-state tests): at most 2 x pending() + 64, and 0 when idle.
  std::size_t retained_entries() const { return heap_.size(); }

  struct Stats {
    std::uint64_t scheduled = 0;    ///< timers accepted
    std::uint64_t fired = 0;        ///< timer callbacks run
    std::uint64_t cancelled = 0;    ///< explicit Cancel() hits
    std::uint64_t invalidated = 0;  ///< dropped by InvalidateAll()
    /// Engine events the wheel consumed. A tick fires nothing when the
    /// timer it was armed for was cancelled while others stayed pending;
    /// fired / ticks is the coalescing ratio the wheel earns.
    std::uint64_t ticks = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  static constexpr int kSlotBits = 20;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Slot {
    EventCallback fn;
    TimerId key = 0;  // 0 = vacant
  };
  struct Entry {
    std::uint64_t deadline_tick = 0;
    Time due{0};  // requested (pre-quantization) fire time
    TimerId key = 0;
  };
  /// Heap order: the top is the earliest (deadline, due, key).
  static bool Later(const Entry& a, const Entry& b);

  std::uint64_t TickOf(Time t) const;
  bool IsLive(const Entry& e) const {
    return slots_[e.key & kSlotMask].key == e.key;
  }
  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t slot);
  void PopTop();
  /// Accounts one timer leaving (fired or cancelled) and keeps the heap
  /// bounded by the live count.
  void Retire();
  void ArmAt(std::uint64_t target_tick);
  void OnTick();

  Simulation* sim_;
  std::int64_t tick_us_;
  std::uint64_t cur_tick_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  bool firing_ = false;

  EventId armed_event_ = kInvalidEvent;
  std::uint64_t armed_target_ = 0;

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Stats stats_;
};

}  // namespace ks::sim
