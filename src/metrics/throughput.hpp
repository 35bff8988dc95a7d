#pragma once

#include <vector>

#include "common/time.hpp"

namespace ks::metrics {

/// Aggregates completion timestamps into the throughput quantities the
/// paper reports: jobs per minute over the makespan, and windowed rates
/// for timelines.
class ThroughputTimeline {
 public:
  void NoteCompletion(Time t) { completions_.push_back(t); }

  std::size_t count() const { return completions_.size(); }

  /// Completions within [from, to), scaled to a per-minute rate.
  double JobsPerMinute(Time from, Time to) const;

  /// Overall rate from `origin` to the last completion.
  double OverallJobsPerMinute(Time origin = kTimeZero) const;

  /// Peak rate over any window of the given length (sliding by completion
  /// events).
  double PeakJobsPerMinute(Duration window) const;

  Time last_completion() const {
    return completions_.empty() ? kTimeZero : completions_.back();
  }

 private:
  /// In completion order; one entry per completed job, so bounded by the
  /// jobs run, not by simulated time. Read by the rate queries above.
  std::vector<Time> completions_;
};

}  // namespace ks::metrics
