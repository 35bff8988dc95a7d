#include "common/sliding_window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace ks {
namespace {

TEST(SlidingWindowUsage, StartsAtZero) {
  SlidingWindowUsage w(Seconds(10));
  EXPECT_DOUBLE_EQ(w.Usage(kTimeZero), 0.0);
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(5)), 0.0);
  EXPECT_FALSE(w.active());
}

TEST(SlidingWindowUsage, FullyBusyReportsOne) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  EXPECT_TRUE(w.active());
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(10)), 1.0);
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(100)), 1.0);
}

TEST(SlidingWindowUsage, HalfBusyWithinWindow) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  w.Stop(Seconds(5));
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(10)), 0.5);
}

TEST(SlidingWindowUsage, OldIntervalsSlideOut) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  w.Stop(Seconds(5));
  // At t=15 only [5,15] is in the window; the busy part [0,5] overlaps none
  // of [5,15].
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(15)), 0.0);
  // At t=12 the window is [2,12]; busy overlap is [2,5] = 3s.
  EXPECT_NEAR(w.Usage(Seconds(12)), 0.3, 1e-9);
}

TEST(SlidingWindowUsage, EarlyRampUsesElapsedDenominator) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(Seconds(1));
  // One second after first activity, the container has been busy the whole
  // observed time — the usage must read 1.0, not 0.1.
  EXPECT_DOUBLE_EQ(w.Usage(Seconds(2)), 1.0);
  w.Stop(Seconds(2));
  EXPECT_NEAR(w.Usage(Seconds(3)), 0.5, 1e-9);
}

TEST(SlidingWindowUsage, OpenIntervalCountsUpToNow) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  w.Stop(Seconds(2));
  w.Start(Seconds(4));
  EXPECT_NEAR(w.Usage(Seconds(8)), (2.0 + 4.0) / 8.0, 1e-9);
}

TEST(SlidingWindowUsage, StartStopIdempotent) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  w.Start(Seconds(1));  // no-op
  w.Stop(Seconds(2));
  w.Stop(Seconds(3));  // no-op
  EXPECT_NEAR(w.Usage(Seconds(10)), 0.2, 1e-9);
}

TEST(SlidingWindowUsage, BusyTimeMatchesUsage) {
  SlidingWindowUsage w(Seconds(5));
  w.Start(Seconds(1));
  w.Stop(Seconds(2));
  w.Start(Seconds(3));
  w.Stop(Seconds(4));
  EXPECT_EQ(w.BusyTime(Seconds(5)), Seconds(2));
}

TEST(SlidingWindowUsage, CompactDropsOldIntervalsOnly) {
  SlidingWindowUsage w(Seconds(2));
  for (int i = 0; i < 100; ++i) {
    w.Start(Seconds(i));
    w.Stop(Seconds(i) + Millis(500));
  }
  // The last Stop (t=99.5) compacted against cutoff 97.5: [97,97.5] and
  // everything older is gone, [98,98.5] and [99,99.5] remain.
  EXPECT_EQ(w.retained_intervals().size(), 2u);
  // Window [98,100]: intervals [98,98.5] and [99,99.5] remain -> 1s busy.
  EXPECT_NEAR(w.Usage(Seconds(100)), 0.5, 1e-9);
}

TEST(SlidingWindowUsage, RetainedHistoryIsBoundedByTheWindow) {
  SlidingWindowUsage w(Seconds(1));
  for (int i = 0; i < 100000; ++i) {
    w.Start(Millis(100 * i));
    w.Stop(Millis(100 * i + 50));
  }
  // Only holds that ended after 9999.95 - 1 = 9998.95 s survive.
  EXPECT_EQ(w.retained_intervals().size(), 10u);
  EXPECT_EQ(w.BusyTime(Millis(100 * 100000)), Millis(500));
}

TEST(SlidingWindowUsage, ZeroElapsedActive) {
  SlidingWindowUsage w(Seconds(10));
  w.Start(kTimeZero);
  EXPECT_DOUBLE_EQ(w.Usage(kTimeZero), 1.0);
}

/// Brute-force oracle: keeps the whole hold history and scans all of it on
/// every query — the accounting SlidingWindowUsage must reproduce exactly.
class FullHistoryUsage {
 public:
  explicit FullHistoryUsage(Duration window) : window_(window) {}

  void Start(Time now) {
    if (!origin_set_) {
      origin_ = now;
      origin_set_ = true;
    }
    if (active_) return;
    active_ = true;
    active_since_ = now;
  }

  void Stop(Time now) {
    if (!active_) return;
    if (now > active_since_) intervals_.push_back({active_since_, now});
    active_ = false;
  }

  bool active() const { return active_; }
  const std::vector<SlidingWindowUsage::Interval>& intervals() const {
    return intervals_;
  }

  Duration BusyTime(Time now) const {
    const Time cutoff = Cutoff(now);
    Duration busy{0};
    for (const auto& iv : intervals_) {
      const Time s = std::max(iv.start, cutoff);
      const Time e = std::min(iv.end, now);
      if (e > s) busy += e - s;
    }
    if (active_ && now > active_since_) {
      const Time s = std::max(active_since_, cutoff);
      if (now > s) busy += now - s;
    }
    return busy;
  }

  double Usage(Time now) const {
    Duration denom = window_;
    if (origin_set_ && now - origin_ < window_) denom = now - origin_;
    if (denom.count() <= 0) return active_ ? 1.0 : 0.0;
    return std::min(1.0, static_cast<double>(BusyTime(now).count()) /
                             static_cast<double>(denom.count()));
  }

  Time Cutoff(Time now) const {
    return now > window_ ? now - window_ : kTimeZero;
  }

 private:
  Duration window_;
  std::vector<SlidingWindowUsage::Interval> intervals_;
  bool active_ = false;
  Time active_since_{0};
  Time origin_{0};
  bool origin_set_ = false;
};

/// Random Start/Stop/query sequences with random window lengths: BusyTime
/// and Usage equal the full-history scan exactly, and after every Stop the
/// tracker retains precisely the intervals that end after now - window.
/// Queries jump back and forth in time but never before the last Stop.
TEST(SlidingWindowUsage, MatchesFullHistoryOracle) {
  for (std::uint64_t seed : {1u, 2u, 3u, 7u, 42u, 1234u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const Duration window = Micros(rng.UniformInt(1, 200000));
    SlidingWindowUsage w(window);
    FullHistoryUsage oracle(window);
    Time now = Micros(rng.UniformInt(0, 1000));
    Time last_stop{0};
    std::size_t max_retained = 0;
    for (int step = 0; step < 4000; ++step) {
      // Steps range from zero (same-instant ops) to over a window.
      const std::int64_t span = window.count() * (rng.Chance(0.05) ? 4 : 1);
      now += Micros(rng.UniformInt(0, span / 3 + 1));
      const double roll = rng.Uniform(0.0, 1.0);
      if (roll < 0.35) {
        w.Start(now);
        oracle.Start(now);
      } else if (roll < 0.7) {
        const bool was_active = oracle.active();
        w.Stop(now);
        oracle.Stop(now);
        if (was_active) {
          last_stop = now;
          const Time cutoff = oracle.Cutoff(now);
          std::size_t live = 0;
          for (const auto& iv : oracle.intervals()) live += iv.end > cutoff;
          ASSERT_EQ(w.retained_intervals().size(), live) << "step " << step;
          for (const auto& iv : w.retained_intervals()) {
            ASSERT_GT(iv.end, cutoff) << "step " << step;
          }
          max_retained = std::max(max_retained, live);
        }
      }
      ASSERT_EQ(w.active(), oracle.active());
      for (int q = 0; q < 3; ++q) {
        const Time at =
            last_stop + Micros(rng.UniformInt(
                            0, (now - last_stop).count() + window.count()));
        ASSERT_EQ(w.BusyTime(at), oracle.BusyTime(at))
            << "step " << step << " at " << at.count();
        ASSERT_EQ(w.Usage(at), oracle.Usage(at))
            << "step " << step << " at " << at.count();
      }
    }
    // Compaction did real work: the tracker never held a tenth of the
    // oracle's history.
    EXPECT_LT(max_retained * 10, oracle.intervals().size());
  }
}

}  // namespace
}  // namespace ks
