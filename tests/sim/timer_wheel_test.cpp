#include "sim/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulation.hpp"

namespace ks::sim {
namespace {

TEST(TimerWheelTest, ExactAtMicrosecondTick) {
  Simulation sim;
  TimerWheel wheel(&sim, Duration{0});
  std::vector<std::pair<std::int64_t, int>> fired;
  wheel.ScheduleAt(Micros(456), [&] { fired.push_back({sim.Now().count(), 1}); });
  wheel.ScheduleAt(Micros(123), [&] { fired.push_back({sim.Now().count(), 0}); });
  sim.Run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], std::make_pair(std::int64_t{123}, 0));
  EXPECT_EQ(fired[1], std::make_pair(std::int64_t{456}, 1));
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_FALSE(wheel.armed());
}

TEST(TimerWheelTest, QuantizesUpToGrid) {
  Simulation sim;
  TimerWheel wheel(&sim, Micros(500));
  EXPECT_EQ(wheel.QuantizeUp(Micros(0)), Micros(0));
  EXPECT_EQ(wheel.QuantizeUp(Micros(1)), Micros(500));
  EXPECT_EQ(wheel.QuantizeUp(Micros(500)), Micros(500));
  EXPECT_EQ(wheel.QuantizeUp(Micros(1250)), Micros(1500));
  Time at{0};
  wheel.ScheduleAt(Micros(1250), [&] { at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(at, Micros(1500));
}

TEST(TimerWheelTest, CoalescesWindowIntoOneEngineEvent) {
  Simulation sim;
  TimerWheel wheel(&sim, Millis(1));
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    wheel.ScheduleAt(Micros(5001 + 100 * i), [&] {
      ++fired;
      EXPECT_EQ(sim.Now(), Micros(6000));
    });
  }
  // Ten timers, one armed engine event.
  EXPECT_EQ(wheel.pending(), 10u);
  EXPECT_EQ(sim.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(wheel.stats().fired, 10u);
  EXPECT_EQ(wheel.stats().ticks, 1u);
}

TEST(TimerWheelTest, SameTickOrderIsRequestedTimeThenInsertion) {
  Simulation sim;
  TimerWheel wheel(&sim, Millis(1));
  std::vector<int> order;
  wheel.ScheduleAt(Micros(900), [&] { order.push_back(0); });  // latest due
  wheel.ScheduleAt(Micros(100), [&] { order.push_back(1); });
  wheel.ScheduleAt(Micros(100), [&] { order.push_back(2); });  // FIFO after 1
  wheel.ScheduleAt(Micros(500), [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
}

TEST(TimerWheelTest, CancelPreventsFireAndStaleCancelIsNoop) {
  Simulation sim;
  TimerWheel wheel(&sim, Micros(1));
  int fired = 0;
  const TimerId a = wheel.ScheduleAt(Millis(1), [&] { ++fired; });
  const TimerId b = wheel.ScheduleAt(Millis(2), [&] { ++fired; });
  EXPECT_TRUE(wheel.Cancel(a));
  EXPECT_FALSE(wheel.Cancel(a));  // already cancelled
  EXPECT_EQ(wheel.pending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(wheel.Cancel(b));  // already fired
  EXPECT_FALSE(wheel.Cancel(kInvalidTimer));
}

TEST(TimerWheelTest, CancellingLastTimerDisarmsTheWheel) {
  Simulation sim;
  TimerWheel wheel(&sim, Micros(500));
  const TimerId t = wheel.ScheduleAt(Millis(5), [] {});
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(wheel.Cancel(t));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(wheel.armed());
}

TEST(TimerWheelTest, InvalidateAllDropsEverything) {
  Simulation sim;
  TimerWheel wheel(&sim, Micros(500));
  int fired = 0;
  const TimerId a = wheel.ScheduleAt(Millis(1), [&] { ++fired; });
  wheel.ScheduleAt(Millis(2), [&] { ++fired; });
  EXPECT_EQ(wheel.InvalidateAll(), 2u);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(wheel.Cancel(a));  // generation stamp: id is stale now
  // The wheel stays usable after an invalidation.
  Time at{0};
  wheel.ScheduleAt(Millis(3), [&] { at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(at, Millis(3));
  EXPECT_EQ(wheel.stats().invalidated, 2u);
}

TEST(TimerWheelTest, FarDeadlinesCascadeToExactFireTimes) {
  Simulation sim;
  TimerWheel wheel(&sim, Micros(1));
  // 1 s at a 1 us tick is 10^6 ticks, and the three deadlines sit orders
  // of magnitude apart: each must still fire at its exact microsecond,
  // whatever the distance to the next one.
  std::vector<std::int64_t> fired;
  wheel.ScheduleAt(Seconds(1.0), [&] { fired.push_back(sim.Now().count()); });
  wheel.ScheduleAt(Millis(300), [&] { fired.push_back(sim.Now().count()); });
  wheel.ScheduleAt(Micros(70), [&] { fired.push_back(sim.Now().count()); });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<std::int64_t>{70, 300000, 1000000}));
}

TEST(TimerWheelTest, CallbackMayScheduleSameInstant) {
  Simulation sim;
  TimerWheel wheel(&sim, Micros(500));
  std::vector<int> order;
  wheel.ScheduleAt(Millis(1), [&] {
    order.push_back(0);
    wheel.ScheduleAt(sim.Now(), [&] { order.push_back(1); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.Now(), Millis(1));
}

TEST(TimerWheelTest, CallbackMayCancelSiblingInSameBatch) {
  Simulation sim;
  TimerWheel wheel(&sim, Millis(1));
  int fired = 0;
  TimerId victim = kInvalidTimer;
  wheel.ScheduleAt(Micros(400), [&] {
    ++fired;
    EXPECT_TRUE(wheel.Cancel(victim));
  });
  victim = wheel.ScheduleAt(Micros(600), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CallbackMayInvalidateAllThenReschedule) {
  // The token backend's restart path: a wheel-resident timer wipes the
  // wheel and schedules the daemon's come-back timer in the same breath.
  Simulation sim;
  TimerWheel wheel(&sim, Micros(500));
  int stale_fires = 0;
  Time comeback{0};
  wheel.ScheduleAt(Millis(2), [&] { ++stale_fires; });
  wheel.ScheduleAt(Millis(2), [&] { ++stale_fires; });
  wheel.ScheduleAt(Millis(1), [&] {
    wheel.InvalidateAll();
    wheel.ScheduleAfter(Millis(50), [&] { comeback = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(stale_fires, 0);
  EXPECT_EQ(comeback, Millis(51));
  EXPECT_FALSE(wheel.armed());
}

TEST(TimerWheelTest, RandomizedAgainstEngineAtUnitTick) {
  // With a 1 us tick the wheel must be an exact drop-in for raw engine
  // events: same fire times, same (time, insertion) order.
  std::mt19937_64 rng(20260807);
  for (int round = 0; round < 5; ++round) {
    Simulation raw_sim;
    Simulation wheel_sim;
    TimerWheel wheel(&wheel_sim, Micros(1));
    std::vector<std::pair<std::int64_t, int>> raw_fired;
    std::vector<std::pair<std::int64_t, int>> wheel_fired;
    std::uniform_int_distribution<std::int64_t> at_us(0, 2'000'000);
    for (int i = 0; i < 500; ++i) {
      const Time t{at_us(rng)};
      raw_sim.ScheduleAt(t, [&raw_fired, &raw_sim, i] {
        raw_fired.push_back({raw_sim.Now().count(), i});
      });
      wheel.ScheduleAt(t, [&wheel_fired, &wheel_sim, i] {
        wheel_fired.push_back({wheel_sim.Now().count(), i});
      });
    }
    raw_sim.Run();
    wheel_sim.Run();
    EXPECT_EQ(raw_fired, wheel_fired);
  }
}

TEST(TimerWheelTest, StatsCountCoalescing) {
  Simulation sim;
  TimerWheel wheel(&sim, Millis(5));
  // 4 devices x 20 renewals landing in the same 5 ms windows.
  for (int d = 0; d < 4; ++d) {
    for (int k = 1; k <= 20; ++k) {
      wheel.ScheduleAt(Millis(5 * k) + Micros(100 * d), [] {});
    }
  }
  sim.Run();
  EXPECT_EQ(wheel.stats().scheduled, 80u);
  EXPECT_EQ(wheel.stats().fired, 80u);
  // All four devices' renewals in window k collapse onto one tick.
  EXPECT_LE(wheel.stats().ticks, 21u);
}

TEST(TimerWheelTest, CancelledEntriesStayBoundedByLiveCount) {
  // Renewal-style churn: each of up to 64 streams keeps one pending
  // deadline and replaces it (Cancel + ScheduleAfter) far more often than
  // it fires. Cancelled heap entries must be compacted away, not pile up
  // for the life of the run.
  Simulation sim;
  TimerWheel wheel(&sim, Micros(500));
  Rng rng(20261018);
  std::vector<TimerId> streams(64, kInvalidTimer);
  std::size_t worst_excess = 0;
  for (int cycle = 0; cycle < 1'000'000; ++cycle) {
    TimerId& id = streams[static_cast<std::size_t>(rng.UniformInt(0, 63))];
    wheel.Cancel(id);
    id = wheel.ScheduleAfter(Micros(rng.UniformInt(500, 3000)), [] {});
    // A stream left alone for a few ms sees its deadline fire.
    if (cycle % 64 == 0) sim.RunUntil(sim.Now() + Micros(500));
    ASSERT_LE(wheel.retained_entries(), 2 * wheel.pending() + 64)
        << "cycle " << cycle;
    worst_excess = std::max(worst_excess,
                            wheel.retained_entries() - wheel.pending());
  }
  EXPECT_GT(worst_excess, 0u);  // cancellation is lazy, not eager
  EXPECT_GT(wheel.stats().fired, 0u);
  for (const TimerId id : streams) wheel.Cancel(id);
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(wheel.retained_entries(), 0u);
  EXPECT_FALSE(wheel.armed());
}

}  // namespace
}  // namespace ks::sim
