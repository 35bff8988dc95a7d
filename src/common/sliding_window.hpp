#pragma once

#include <deque>

#include "common/time.hpp"

namespace ks {

/// Tracks the fraction of a trailing time window during which some activity
/// was "on". The vGPU token backend uses one of these per container: the
/// activity is "holds the token", and the resulting fraction is the
/// container's GPU usage rate that the elastic allocation policy compares
/// against gpu_request / gpu_limit (paper §4.5).
///
/// Intervals are recorded as half-open [start, end). The tracker tolerates
/// an open interval (activity started, not yet finished) — usage queries
/// count it up to the query time.
///
/// Memory and query cost are bounded by the window, not by history:
///  - Stop(now) compacts: it drops every closed interval that ended at or
///    before now - window, so only intervals that ended within one window
///    of the last Stop are retained.
///  - A running sum of the retained intervals makes BusyTime() cost
///    O(retained intervals that start before the query's cutoff) — in
///    steady state the one or two straddling it. Queries are const and
///    never compact. The result is exact: durations are integer
///    microseconds, so it equals a scan of the full history.
///
/// Precondition: a query's `now` is never earlier than the last Stop()
/// (asserted). Queries may otherwise be non-monotone — a query earlier
/// than a previous query is fine. Start() is likewise never earlier than
/// the last Stop().
class SlidingWindowUsage {
 public:
  struct Interval {
    Time start;
    Time end;
  };

  explicit SlidingWindowUsage(Duration window) : window_(window) {}

  Duration window() const { return window_; }

  /// Marks the activity as on at time `now`. No-op if already on.
  void Start(Time now);

  /// Marks the activity as off at time `now` and drops the intervals that
  /// can no longer reach any window ending at or after `now`. No-op if
  /// already off.
  void Stop(Time now);

  bool active() const { return active_; }

  /// Busy time within [now - window, now].
  Duration BusyTime(Time now) const;

  /// Busy fraction of the trailing window, in [0, 1].
  ///
  /// Before a full window has elapsed since construction the denominator is
  /// the elapsed time, not the window length — so a container that has held
  /// the token for all of the first second reports usage 1.0, not 0.1. This
  /// matches how the paper's backend can start throttling immediately after
  /// a container launches.
  double Usage(Time now) const;

  /// Closed intervals still retained, oldest first (observability and the
  /// bounded-state tests).
  const std::deque<Interval>& retained_intervals() const {
    return intervals_;
  }

 private:
  Time CutoffAt(Time now) const;
  void Compact(Time now);

  Duration window_;
  std::deque<Interval> intervals_;
  /// Sum of the lengths of intervals_.
  Duration retained_busy_{0};
  bool active_ = false;
  Time active_since_{0};
  Time last_stop_{0};
  Time origin_{0};
  bool origin_set_ = false;
};

}  // namespace ks
