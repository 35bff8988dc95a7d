// Differential test: sim::TimerWheel (one binary heap of deadlines) against
// the hierarchical wheel it replaced (three 64-bucket levels plus an
// overflow bin, cascading as time advances), kept below verbatim as the
// oracle.
//
// Both wheels run in lockstep on two independent Simulations. A seeded
// script — schedules off the grid, on it, at an existing timer's tick, in
// the past and beyond the old 64^3-tick span; cancels of the earliest
// timer and of arbitrary (often already fired) ids; InvalidateAll; raw
// engine events on grid instants — is generated once and replayed into
// both. Timer callbacks draw from their own copy of one seeded Rng to
// schedule at the current instant, renew, cancel a sibling or invalidate
// mid-batch, so the two runs make the same choices for as long as they
// agree. At every checkpoint and at the end they must agree exactly: the
// (now, label) fire trace, every TimerId handed out, stats(), pending(),
// armed() and the engine's executed and pending event counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/timer_wheel.hpp"

namespace ks::sim {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the hierarchical timer wheel, verbatim apart from its name.

class HierarchicalWheel {
 public:
  /// `tick` is the quantization grid (coalescing window). Values <= 1us
  /// (including zero) make the wheel exact.
  HierarchicalWheel(Simulation* sim, Duration tick);
  ~HierarchicalWheel();
  HierarchicalWheel(const HierarchicalWheel&) = delete;
  HierarchicalWheel& operator=(const HierarchicalWheel&) = delete;

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

  struct Stats {
    std::uint64_t scheduled = 0;    ///< timers accepted
    std::uint64_t fired = 0;        ///< timer callbacks run
    std::uint64_t cancelled = 0;    ///< explicit Cancel() hits
    std::uint64_t invalidated = 0;  ///< dropped by InvalidateAll()
    /// Engine events the wheel consumed. Every tick fires at least one
    /// timer; fired / ticks is the coalescing ratio the wheel earns.
    std::uint64_t ticks = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  static constexpr int kLevelBits = 6;
  static constexpr std::uint64_t kBuckets = 1ull << kLevelBits;  // 64
  static constexpr int kLevels = 3;
  static constexpr std::uint64_t kTopSpan = 1ull << (kLevelBits * kLevels);
  static constexpr int kSlotBits = 20;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Slot {
    EventCallback fn;
    TimerId key = 0;  // 0 = vacant
    Time due{0};      // requested (pre-quantization) fire time
    std::uint64_t deadline_tick = 0;
    // Current residence, so Cancel can unlink in O(bucket size).
    std::uint8_t level = 0;  // kLevels == overflow bin
    std::uint8_t bucket = 0;
    bool extracted = false;  // pulled into the currently-firing batch
  };

  std::uint64_t TickOf(Time t) const;
  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t slot);
  /// Files a slot into the level/bucket its deadline demands, relative to
  /// cur_tick_.
  void Place(std::uint32_t slot);
  void Unlink(const Slot& s, TimerId key);
  /// Ensures the armed engine event targets the earliest actionable tick.
  void Rearm();
  std::uint64_t FindNextTarget() const;
  void ArmAt(std::uint64_t target_tick);
  void OnTick();
  void CascadeAcross(std::uint64_t from_tick, std::uint64_t to_tick);

  Simulation* sim_;
  std::int64_t tick_us_;
  std::uint64_t cur_tick_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  bool firing_ = false;

  EventId armed_event_ = kInvalidEvent;
  std::uint64_t armed_target_ = 0;

  std::vector<TimerId> buckets_[kLevels][kBuckets];
  std::vector<TimerId> overflow_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Stats stats_;
};

HierarchicalWheel::HierarchicalWheel(Simulation* sim, Duration tick)
    : sim_(sim), tick_us_(tick.count() > 0 ? tick.count() : 1) {
  assert(sim_ != nullptr);
  cur_tick_ = static_cast<std::uint64_t>(sim_->Now().count()) /
              static_cast<std::uint64_t>(tick_us_);
}

HierarchicalWheel::~HierarchicalWheel() {
  if (armed_event_ != kInvalidEvent) sim_->Cancel(armed_event_);
}

std::uint64_t HierarchicalWheel::TickOf(Time t) const {
  const std::int64_t us = t.count() > 0 ? t.count() : 0;
  return (static_cast<std::uint64_t>(us) +
          static_cast<std::uint64_t>(tick_us_) - 1) /
         static_cast<std::uint64_t>(tick_us_);
}

Time HierarchicalWheel::QuantizeUp(Time t) const {
  return Time{static_cast<std::int64_t>(TickOf(t)) * tick_us_};
}

std::uint32_t HierarchicalWheel::AcquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  assert(slots_.size() < kSlotMask);
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void HierarchicalWheel::ReleaseSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = EventCallback();
  s.key = 0;
  s.extracted = false;
  free_slots_.push_back(slot);
}

void HierarchicalWheel::Place(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint64_t delta =
      s.deadline_tick > cur_tick_ ? s.deadline_tick - cur_tick_ : 0;
  if (delta >= kTopSpan) {
    s.level = kLevels;
    s.bucket = 0;
    overflow_.push_back(s.key);
    return;
  }
  int level = 0;
  while (delta >= (1ull << (kLevelBits * (level + 1)))) ++level;
  const std::uint8_t bucket = static_cast<std::uint8_t>(
      (s.deadline_tick >> (kLevelBits * level)) & (kBuckets - 1));
  s.level = static_cast<std::uint8_t>(level);
  s.bucket = bucket;
  buckets_[level][bucket].push_back(s.key);
}

void HierarchicalWheel::Unlink(const Slot& s, TimerId key) {
  std::vector<TimerId>& bin =
      s.level == kLevels ? overflow_ : buckets_[s.level][s.bucket];
  bin.erase(std::remove(bin.begin(), bin.end(), key), bin.end());
}

TimerId HierarchicalWheel::ScheduleAt(Time t, EventCallback fn) {
  if (t < sim_->Now()) t = sim_->Now();
  const std::uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.due = t;
  std::uint64_t dt = TickOf(t);
  if (dt < cur_tick_) dt = cur_tick_;
  s.deadline_tick = dt;
  const TimerId key = (next_seq_++ << kSlotBits) | slot;
  s.key = key;
  Place(slot);
  ++live_;
  ++stats_.scheduled;
  if (!firing_) {
    // The armed event always targets the earliest deadline; re-arm only
    // when this timer beats it.
    if (armed_event_ == kInvalidEvent) {
      ArmAt(dt);
    } else if (dt < armed_target_) {
      sim_->Cancel(armed_event_);
      ArmAt(dt);
    }
  }
  return key;
}

TimerId HierarchicalWheel::ScheduleAfter(Duration delay, EventCallback fn) {
  if (delay.count() < 0) delay = Duration{0};
  return ScheduleAt(sim_->Now() + delay, std::move(fn));
}

bool HierarchicalWheel::Cancel(TimerId id) {
  if (id == kInvalidTimer) return false;
  const std::uint64_t slot = id & kSlotMask;
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (s.key != id) return false;
  if (!s.extracted) Unlink(s, id);
  ReleaseSlot(static_cast<std::uint32_t>(slot));
  --live_;
  ++stats_.cancelled;
  if (live_ == 0 && !firing_ && armed_event_ != kInvalidEvent) {
    sim_->Cancel(armed_event_);
    armed_event_ = kInvalidEvent;
  }
  return true;
}

std::size_t HierarchicalWheel::InvalidateAll() {
  const std::size_t dropped = live_;
  for (int level = 0; level < kLevels; ++level) {
    for (std::uint64_t b = 0; b < kBuckets; ++b) buckets_[level][b].clear();
  }
  overflow_.clear();
  free_slots_.clear();
  for (std::size_t i = slots_.size(); i-- > 0;) {
    Slot& s = slots_[i];
    s.fn = EventCallback();
    s.key = 0;
    s.extracted = false;
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  live_ = 0;
  stats_.invalidated += dropped;
  if (!firing_ && armed_event_ != kInvalidEvent) {
    sim_->Cancel(armed_event_);
    armed_event_ = kInvalidEvent;
  }
  return dropped;
}

void HierarchicalWheel::ArmAt(std::uint64_t target_tick) {
  armed_target_ = target_tick;
  const Time at{static_cast<std::int64_t>(target_tick) * tick_us_};
  armed_event_ = sim_->ScheduleAt(at, [this] { OnTick(); });
}

std::uint64_t HierarchicalWheel::FindNextTarget() const {
  // Exhaustive min-deadline scan: 3*64 bucket checks plus one comparison
  // per resident timer. The wheel serves tens of timers, so this is
  // cheaper than maintaining incremental occupancy summaries — and it
  // lets the armed event target the deadline itself instead of a cascade
  // boundary, so no engine event is ever spent on bookkeeping alone.
  std::uint64_t best = UINT64_MAX;
  for (int level = 0; level < kLevels; ++level) {
    for (std::uint64_t b = 0; b < kBuckets; ++b) {
      for (const TimerId key : buckets_[level][b]) {
        const Slot& s = slots_[key & kSlotMask];
        if (s.deadline_tick < best) best = s.deadline_tick;
      }
    }
  }
  for (const TimerId key : overflow_) {
    const Slot& s = slots_[key & kSlotMask];
    if (s.deadline_tick < best) best = s.deadline_tick;
  }
  assert(best != UINT64_MAX);
  return best;
}

void HierarchicalWheel::CascadeAcross(std::uint64_t from_tick,
                               std::uint64_t to_tick) {
  // The jump from_tick -> to_tick crossed some coarse bucket positions;
  // re-place the contents of each crossed position (at most one full
  // rotation per level) so everything due soon refines toward level 0.
  // Overflow first, then coarse-to-fine: each stage may deposit into a
  // bucket a finer stage is about to sweep.
  std::vector<TimerId> moved;
  if (!overflow_.empty()) {
    std::vector<TimerId> keep;
    for (const TimerId key : overflow_) {
      const Slot& s = slots_[key & kSlotMask];
      if (s.deadline_tick - to_tick < kTopSpan) {
        moved.push_back(key);
      } else {
        keep.push_back(key);
      }
    }
    overflow_.swap(keep);
    for (const TimerId key : moved) Place(key & kSlotMask);
  }
  for (int level = kLevels - 1; level >= 1; --level) {
    const int shift = kLevelBits * level;
    const std::uint64_t from = from_tick >> shift;
    const std::uint64_t to = to_tick >> shift;
    if (to == from) continue;
    const std::uint64_t steps = std::min(to - from, kBuckets);
    for (std::uint64_t i = 1; i <= steps; ++i) {
      std::vector<TimerId>& bucket =
          buckets_[level][(from + i) & (kBuckets - 1)];
      if (bucket.empty()) continue;
      moved.clear();
      moved.swap(bucket);
      for (const TimerId key : moved) Place(key & kSlotMask);
    }
  }
}

void HierarchicalWheel::OnTick() {
  armed_event_ = kInvalidEvent;
  const std::uint64_t from = cur_tick_;
  if (armed_target_ > cur_tick_) cur_tick_ = armed_target_;
  ++stats_.ticks;
  firing_ = true;
  CascadeAcross(from, cur_tick_);

  // Fire every due timer at this tick in (requested time, insertion seq)
  // order. Callbacks may push new same-tick timers into the bucket, so
  // loop until an extraction pass comes up empty.
  std::vector<TimerId> batch;
  std::vector<TimerId> keep;
  while (true) {
    std::vector<TimerId>& bucket = buckets_[0][cur_tick_ & (kBuckets - 1)];
    batch.clear();
    keep.clear();
    for (const TimerId key : bucket) {
      Slot& s = slots_[key & kSlotMask];
      if (s.deadline_tick <= cur_tick_) {
        s.extracted = true;
        batch.push_back(key);
      } else {
        keep.push_back(key);
      }
    }
    bucket.swap(keep);
    if (batch.empty()) break;
    std::sort(batch.begin(), batch.end(), [this](TimerId a, TimerId b) {
      const Slot& sa = slots_[a & kSlotMask];
      const Slot& sb = slots_[b & kSlotMask];
      if (sa.due != sb.due) return sa.due < sb.due;
      return a < b;  // insertion order: ids embed the global sequence
    });
    for (const TimerId key : batch) {
      const std::uint32_t slot = static_cast<std::uint32_t>(key & kSlotMask);
      Slot& s = slots_[slot];
      if (s.key != key) continue;  // cancelled or invalidated mid-batch
      EventCallback fn = std::move(s.fn);
      ReleaseSlot(slot);
      --live_;
      ++stats_.fired;
      fn();
    }
  }
  firing_ = false;
  if (live_ > 0) {
    ArmAt(FindNextTarget());
  }
}


// ---------------------------------------------------------------------------
// Script: generated once per (tick, seed), replayed into both wheels.

struct ScriptOp {
  enum Kind {
    kOffGrid,        // now + arbitrary microseconds
    kOnGrid,         // an exact grid instant ahead
    kSameTick,       // the requested time of a live timer, or 1us later
    kPast,           // before now: clamped to now
    kFar,            // beyond the hierarchical wheel's 64^3-tick span
    kCancelEarliest, // the earliest live timer
    kCancelAny,      // any id handed out so far, usually stale
    kInvalidateAll,
    kRawEvent,       // a plain engine event on a grid instant ahead
  };
  Time at{0};
  Kind kind = kOffGrid;
  std::int64_t arg = 0;
};

constexpr std::int64_t kSpanTicks = 64 * 64 * 64;
/// Ops spread over this many ticks. InvalidateAll only happens in the first
/// half, so timers pushed past the 64^3-tick span late on survive to fire.
constexpr std::int64_t kHorizonTicks = 4000;

std::vector<ScriptOp> MakeScript(std::int64_t tick_us, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<ScriptOp> ops;
  const std::int64_t horizon = kHorizonTicks * tick_us;
  for (int i = 0; i < 800; ++i) {
    ScriptOp op;
    const std::int64_t at = rng.UniformInt(0, horizon);
    // Half the ops land on grid instants, where they race the wheel's own
    // tick event in the engine's FIFO order.
    op.at = Time{rng.Chance(0.5) ? at / tick_us * tick_us : at};
    const std::int64_t r = rng.UniformInt(0, 99);
    if (r < 25) {
      op.kind = ScriptOp::kOffGrid;
    } else if (r < 35) {
      op.kind = ScriptOp::kOnGrid;
    } else if (r < 45) {
      op.kind = ScriptOp::kSameTick;
    } else if (r < 52) {
      op.kind = ScriptOp::kPast;
    } else if (r < 57) {
      op.kind = ScriptOp::kFar;
    } else if (r < 70) {
      op.kind = ScriptOp::kCancelEarliest;
    } else if (r < 82) {
      op.kind = ScriptOp::kCancelAny;
    } else if (r < 84 && 2 * at < horizon) {
      op.kind = ScriptOp::kInvalidateAll;
    } else {
      op.kind = ScriptOp::kRawEvent;
    }
    op.arg = rng.UniformInt(0, 1'000'000);
    ops.push_back(op);
  }
  return ops;
}

/// One wheel implementation on its own Simulation, driven by the script.
template <typename Wheel>
class Harness {
 public:
  Harness(Duration tick, std::uint64_t seed)
      : wheel_(&sim_, tick), rng_(seed), tick_us_(wheel_.tick().count()) {}

  void Load(const std::vector<ScriptOp>& ops) {
    for (const ScriptOp& op : ops) {
      sim_.ScheduleAt(op.at, [this, op] { Apply(op); });
    }
  }

  Simulation sim_;
  Wheel wheel_;
  std::vector<std::pair<std::int64_t, int>> trace_;  // (now, label)
  std::vector<TimerId> ids_;                         // every id handed out

 private:
  void Apply(const ScriptOp& op) {
    const std::int64_t now = sim_.Now().count();
    switch (op.kind) {
      case ScriptOp::kOffGrid:
        Schedule(Time{now + op.arg % (60 * tick_us_) + 1});
        break;
      case ScriptOp::kOnGrid:
        Schedule(Time{(now / tick_us_ + 1 + op.arg % 40) * tick_us_});
        break;
      case ScriptOp::kSameTick:
        if (live_.empty()) {
          Schedule(Time{now});
        } else {
          auto it = live_.begin();
          std::advance(it, op.arg % static_cast<std::int64_t>(live_.size()));
          Schedule(it->first.first + Duration{op.arg % 2});
        }
        break;
      case ScriptOp::kPast:
        Schedule(Time{now - 1 - op.arg % (10 * tick_us_)});
        break;
      case ScriptOp::kFar:
        Schedule(Time{now + (1 + op.arg % 3) * kSpanTicks * tick_us_ +
                      op.arg % (100 * tick_us_)});
        break;
      case ScriptOp::kCancelEarliest:
        CancelEarliest();
        break;
      case ScriptOp::kCancelAny:
        if (!ids_.empty()) {
          const TimerId id =
              ids_[op.arg % static_cast<std::int64_t>(ids_.size())];
          if (wheel_.Cancel(id)) {
            std::erase_if(live_, [id](const auto& kv) {
              return kv.second == id;
            });
          }
        }
        break;
      case ScriptOp::kInvalidateAll:
        wheel_.InvalidateAll();
        live_.clear();
        break;
      case ScriptOp::kRawEvent:
        RawEventOnGrid(1 + op.arg % 8);
        break;
    }
  }

  /// Schedules for `t`; `relative` goes through ScheduleAfter(t - now).
  void Schedule(Time t, bool relative = false) {
    const int label = next_label_++;
    const Time due = std::max(t, sim_.Now());
    EventCallback fire = [this, label, due] { Fire(label, due); };
    const TimerId id =
        relative ? wheel_.ScheduleAfter(t - sim_.Now(), std::move(fire))
                 : wheel_.ScheduleAt(t, std::move(fire));
    ids_.push_back(id);
    live_[{due, label}] = id;
  }

  void Fire(int label, Time due) {
    trace_.push_back({sim_.Now().count(), label});
    live_.erase({due, label});
    const std::int64_t r = rng_.UniformInt(0, 99);
    if (r < 10) {
      Schedule(sim_.Now());  // same instant: a later pass of this tick
    } else if (r < 20) {
      CancelEarliest();  // often a sibling in this very batch
    } else if (r < 22 && 2 * sim_.Now().count() < kHorizonTicks * tick_us_) {
      wheel_.InvalidateAll();
      live_.clear();
      Schedule(sim_.Now() + Duration{rng_.UniformInt(0, 20 * tick_us_)});
    } else if (r < 50) {
      // Renewal: the next deadline, off the grid.
      Schedule(sim_.Now() + Duration{rng_.UniformInt(1, 30 * tick_us_)},
               /*relative=*/true);
    } else if (r < 60) {
      RawEventOnGrid(rng_.UniformInt(0, 4));
    }
  }

  /// A plain engine event `ticks_ahead` grid instants from now. Its FIFO
  /// rank against the wheel's armed event at the same instant records
  /// exactly when the wheel (re-)armed.
  void RawEventOnGrid(std::int64_t ticks_ahead) {
    const int label = -(next_label_++);
    const Time at{(sim_.Now().count() / tick_us_ + ticks_ahead) * tick_us_};
    sim_.ScheduleAt(at, [this, label] {
      trace_.push_back({sim_.Now().count(), label});
    });
  }

  void CancelEarliest() {
    if (live_.empty()) return;
    wheel_.Cancel(live_.begin()->second);
    live_.erase(live_.begin());
  }

  Rng rng_;
  std::int64_t tick_us_;
  int next_label_ = 1;
  std::map<std::pair<Time, int>, TimerId> live_;  // ordered like the wheel
};

template <typename A, typename B>
::testing::AssertionResult SameState(const Harness<A>& a,
                                     const Harness<B>& b) {
  const auto diverge = std::mismatch(a.trace_.begin(), a.trace_.end(),
                                     b.trace_.begin(), b.trace_.end());
  if (diverge.first != a.trace_.end() || diverge.second != b.trace_.end()) {
    const std::size_t i =
        static_cast<std::size_t>(diverge.first - a.trace_.begin());
    return ::testing::AssertionFailure()
           << "fire traces diverge at entry " << i << " of "
           << a.trace_.size() << " (oracle) / " << b.trace_.size()
           << " (heap) at now=" << a.sim_.Now().count() << "us";
  }
  if (a.ids_ != b.ids_) {
    return ::testing::AssertionFailure() << "handed-out TimerIds differ";
  }
  const auto& sa = a.wheel_.stats();
  const auto& sb = b.wheel_.stats();
  if (std::tie(sa.scheduled, sa.fired, sa.cancelled, sa.invalidated,
               sa.ticks) != std::tie(sb.scheduled, sb.fired, sb.cancelled,
                                     sb.invalidated, sb.ticks)) {
    return ::testing::AssertionFailure()
           << "stats differ: ticks " << sa.ticks << " vs " << sb.ticks
           << ", fired " << sa.fired << " vs " << sb.fired;
  }
  if (a.wheel_.pending() != b.wheel_.pending() ||
      a.wheel_.armed() != b.wheel_.armed()) {
    return ::testing::AssertionFailure() << "pending()/armed() differ";
  }
  if (a.sim_.executed() != b.sim_.executed() ||
      a.sim_.pending() != b.sim_.pending()) {
    return ::testing::AssertionFailure()
           << "engine events differ: executed " << a.sim_.executed() << " vs "
           << b.sim_.executed();
  }
  return ::testing::AssertionSuccess();
}

class TimerWheelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::uint64_t>> {
};

TEST_P(TimerWheelEquivalence, LockstepWithHierarchicalWheel) {
  const auto [tick_us, seed] = GetParam();
  const std::vector<ScriptOp> script = MakeScript(tick_us, seed);
  Harness<HierarchicalWheel> oracle(Duration{tick_us}, seed);
  Harness<TimerWheel> heap(Duration{tick_us}, seed);
  for (const std::int64_t us : {0L, 1L, tick_us - 1, tick_us, tick_us + 1,
                                 kSpanTicks * tick_us + 7}) {
    EXPECT_EQ(oracle.wheel_.QuantizeUp(Time{us}), heap.wheel_.QuantizeUp(Time{us}));
  }
  oracle.Load(script);
  heap.Load(script);
  for (int step = 1; step <= 40; ++step) {
    const Time until{step * kHorizonTicks / 40 * tick_us};
    oracle.sim_.RunUntil(until);
    heap.sim_.RunUntil(until);
    ASSERT_TRUE(SameState(oracle, heap)) << "checkpoint " << step;
  }
  oracle.sim_.Run();
  heap.sim_.Run();
  ASSERT_TRUE(SameState(oracle, heap)) << "after draining";

  // The script reached every path it exists to cover.
  const TimerWheel::Stats& s = heap.wheel_.stats();
  EXPECT_GT(s.fired, 300u);
  EXPECT_GT(s.cancelled, 50u);
  EXPECT_GT(s.invalidated, 0u);
  EXPECT_GT(s.ticks, 100u);
  EXPECT_GT(heap.trace_.back().first, kSpanTicks * tick_us);  // kFar fired
  EXPECT_EQ(heap.wheel_.pending(), 0u);
  EXPECT_FALSE(heap.wheel_.armed());
}

INSTANTIATE_TEST_SUITE_P(
    TicksAndSeeds, TimerWheelEquivalence,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 500, 5000),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6)),
    [](const auto& info) {
      return "tick" + std::to_string(std::get<0>(info.param)) + "us_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ks::sim
