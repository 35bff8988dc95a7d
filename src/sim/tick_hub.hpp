#pragma once

#include <cstdint>
#include <map>

#include "common/time.hpp"
#include "sim/timer_wheel.hpp"

namespace ks::sim {

/// Repeating-callback multiplexer on a TimerWheel: the "single shared
/// sampler tick". Every periodic instrument (metrics samplers, the NVML
/// poller) used to keep a private self-rescheduling event — one engine
/// event per sample per instrument. A TickHub subscription instead rides
/// the hub's wheel: subscribers whose deadlines land on the same wheel
/// tick share one engine event, and the hub keeps at most one event armed
/// no matter how many instruments it carries.
///
/// Each subscription fires at exact multiples of its period from the
/// subscription time (next_due advances by period, never from the fire
/// time), so a subscriber records byte-identical timestamps to a private
/// self-rescheduling event whenever its period sits on the hub's grid.
class TickHub {
 public:
  using SubId = std::uint64_t;

  /// `granularity` is the wheel tick; zero (the default) keeps the hub
  /// exact at microsecond resolution.
  explicit TickHub(Simulation* sim, Duration granularity = Duration{0})
      : sim_(sim), wheel_(sim, granularity) {}

  Simulation* sim() const { return sim_; }

  /// Registers a callback fired every `period`, first at now + period.
  SubId Subscribe(Duration period, EventCallback fn);

  /// Stops a subscription. Safe on ids already unsubscribed.
  bool Unsubscribe(SubId id);

  std::size_t subscribers() const { return subs_.size(); }
  /// Callback invocations across all subscriptions.
  std::uint64_t fires() const { return fires_; }
  /// Engine events consumed; fires()/ticks() is the sharing ratio.
  std::uint64_t ticks() const { return wheel_.stats().ticks; }
  const TimerWheel& wheel() const { return wheel_; }

 private:
  struct Sub {
    Duration period{0};
    EventCallback fn;
    Time next_due{0};
    TimerId timer = kInvalidTimer;
  };

  void Arm(SubId id);

  Simulation* sim_;
  TimerWheel wheel_;
  std::map<SubId, Sub> subs_;
  SubId next_id_ = 1;
  std::uint64_t fires_ = 0;
};

}  // namespace ks::sim
