#include "common/sliding_window.hpp"

#include <algorithm>
#include <cassert>

namespace ks {

void SlidingWindowUsage::Start(Time now) {
  if (!origin_set_) {
    origin_ = now;
    origin_set_ = true;
  }
  if (active_) return;
  assert(now >= last_stop_);
  active_ = true;
  active_since_ = now;
}

void SlidingWindowUsage::Stop(Time now) {
  if (!active_) return;
  assert(now >= active_since_);
  if (now > active_since_) {
    intervals_.push_back({active_since_, now});
    retained_busy_ += now - active_since_;
  }
  active_ = false;
  last_stop_ = now;
  Compact(now);
}

Time SlidingWindowUsage::CutoffAt(Time now) const {
  return (now.count() > window_.count()) ? now - window_ : kTimeZero;
}

void SlidingWindowUsage::Compact(Time now) {
  const Time cutoff = CutoffAt(now);
  while (!intervals_.empty() && intervals_.front().end <= cutoff) {
    retained_busy_ -= intervals_.front().end - intervals_.front().start;
    intervals_.pop_front();
  }
}

Duration SlidingWindowUsage::BusyTime(Time now) const {
  assert(now >= last_stop_);
  const Time cutoff = CutoffAt(now);
  // Every retained interval ended at or before last_stop_ <= now, so only
  // the parts before the cutoff need taking off the running sum; intervals
  // are sorted, so those are a prefix.
  Duration busy = retained_busy_;
  for (const Interval& iv : intervals_) {
    if (iv.start >= cutoff) break;
    busy -= std::min(iv.end, cutoff) - iv.start;
  }
  if (active_ && now > active_since_) {
    const Time s = std::max(active_since_, cutoff);
    if (now > s) busy += now - s;
  }
  return busy;
}

double SlidingWindowUsage::Usage(Time now) const {
  Duration denom = window_;
  if (origin_set_ && now - origin_ < window_) {
    denom = now - origin_;
  }
  if (denom.count() <= 0) return active_ ? 1.0 : 0.0;
  const Duration busy = BusyTime(now);
  return std::min(1.0, static_cast<double>(busy.count()) /
                           static_cast<double>(denom.count()));
}

}  // namespace ks
