#include "sim/timer_wheel.hpp"

#include <algorithm>
#include <cassert>

namespace ks::sim {

TimerWheel::TimerWheel(Simulation* sim, Duration tick)
    : sim_(sim), tick_us_(tick.count() > 0 ? tick.count() : 1) {
  assert(sim_ != nullptr);
  cur_tick_ = static_cast<std::uint64_t>(sim_->Now().count()) /
              static_cast<std::uint64_t>(tick_us_);
}

TimerWheel::~TimerWheel() {
  if (armed_event_ != kInvalidEvent) sim_->Cancel(armed_event_);
}

bool TimerWheel::Later(const Entry& a, const Entry& b) {
  if (a.deadline_tick != b.deadline_tick) {
    return a.deadline_tick > b.deadline_tick;
  }
  if (a.due != b.due) return a.due > b.due;
  return a.key > b.key;  // insertion order: ids embed the global sequence
}

std::uint64_t TimerWheel::TickOf(Time t) const {
  const std::int64_t us = t.count() > 0 ? t.count() : 0;
  return (static_cast<std::uint64_t>(us) +
          static_cast<std::uint64_t>(tick_us_) - 1) /
         static_cast<std::uint64_t>(tick_us_);
}

Time TimerWheel::QuantizeUp(Time t) const {
  return Time{static_cast<std::int64_t>(TickOf(t)) * tick_us_};
}

std::uint32_t TimerWheel::AcquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  assert(slots_.size() < kSlotMask);
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void TimerWheel::ReleaseSlot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = EventCallback();
  s.key = 0;
  free_slots_.push_back(slot);
}

void TimerWheel::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
}

void TimerWheel::Retire() {
  --live_;
  if (live_ == 0) {
    heap_.clear();
  } else if (heap_.size() > 2 * live_ + 64) {
    std::erase_if(heap_, [this](const Entry& e) { return !IsLive(e); });
    std::make_heap(heap_.begin(), heap_.end(), Later);
  }
}

TimerId TimerWheel::ScheduleAt(Time t, EventCallback fn) {
  if (t < sim_->Now()) t = sim_->Now();
  const std::uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  std::uint64_t dt = TickOf(t);
  if (dt < cur_tick_) dt = cur_tick_;
  const TimerId key = (next_seq_++ << kSlotBits) | slot;
  s.key = key;
  heap_.push_back(Entry{dt, t, key});
  std::push_heap(heap_.begin(), heap_.end(), Later);
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

TimerId TimerWheel::ScheduleAfter(Duration delay, EventCallback fn) {
  if (delay.count() < 0) delay = Duration{0};
  return ScheduleAt(sim_->Now() + delay, std::move(fn));
}

bool TimerWheel::Cancel(TimerId id) {
  if (id == kInvalidTimer) return false;
  const std::uint64_t slot = id & kSlotMask;
  if (slot >= slots_.size() || slots_[slot].key != id) return false;
  // The heap entry stays behind, dead: its slot no longer carries `id`.
  ReleaseSlot(static_cast<std::uint32_t>(slot));
  ++stats_.cancelled;
  Retire();
  if (live_ == 0 && !firing_ && armed_event_ != kInvalidEvent) {
    sim_->Cancel(armed_event_);
    armed_event_ = kInvalidEvent;
  }
  return true;
}

std::size_t TimerWheel::InvalidateAll() {
  const std::size_t dropped = live_;
  heap_.clear();
  free_slots_.clear();
  for (std::size_t i = slots_.size(); i-- > 0;) {
    Slot& s = slots_[i];
    s.fn = EventCallback();
    s.key = 0;
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

void TimerWheel::ArmAt(std::uint64_t target_tick) {
  armed_target_ = target_tick;
  const Time at{static_cast<std::int64_t>(target_tick) * tick_us_};
  armed_event_ = sim_->ScheduleAt(at, [this] { OnTick(); });
}

void TimerWheel::OnTick() {
  armed_event_ = kInvalidEvent;
  if (armed_target_ > cur_tick_) cur_tick_ = armed_target_;
  ++stats_.ticks;
  firing_ = true;
  // Pop every due timer in (requested time, insertion seq) order. A timer
  // a callback adds for this instant is due now and orders after every
  // timer already due, so it fires later in this same loop.
  while (!heap_.empty() && heap_.front().deadline_tick <= cur_tick_) {
    const Entry top = heap_.front();
    PopTop();
    if (!IsLive(top)) continue;  // cancelled, possibly mid-batch
    const std::uint32_t slot = static_cast<std::uint32_t>(top.key & kSlotMask);
    EventCallback fn = std::move(slots_[slot].fn);
    ReleaseSlot(slot);
    ++stats_.fired;
    Retire();
    fn();
  }
  firing_ = false;
  if (live_ > 0) {
    while (!IsLive(heap_.front())) PopTop();
    ArmAt(heap_.front().deadline_tick);
  }
}

}  // namespace ks::sim
