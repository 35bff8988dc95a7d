#pragma once

#include <functional>
#include <vector>

#include "common/time.hpp"
#include "sim/tick_hub.hpp"

namespace ks::metrics {

/// Periodically samples a scalar (pool size, active GPUs, queue depth, ...)
/// into a time series — the generic instrument behind the Fig 9 timelines.
///
/// The sampler subscribes to a shared sim::TickHub, so all instruments on
/// a hub multiplex onto (at most) one armed engine event. Samples land at
/// exact multiples of the period from Start(); probes are read-only, so
/// they equal what a private self-rescheduling event would record whenever
/// the period sits on the hub's grid (tests/metrics/sampler_pull_test.cpp
/// locks this in).
class PeriodicSampler {
 public:
  using Probe = std::function<double()>;

  PeriodicSampler(sim::TickHub* hub, Duration period, Probe probe);

  ~PeriodicSampler();
  PeriodicSampler(const PeriodicSampler&) = delete;
  PeriodicSampler& operator=(const PeriodicSampler&) = delete;

  void Start();
  void Stop();

  struct Sample {
    Time at{0};
    double value = 0.0;
  };
  const std::vector<Sample>& series() const { return series_; }

  double MaxValue() const;
  double MeanValue() const;

 private:
  void Tick();

  sim::TickHub* hub_;
  Duration period_;
  Probe probe_;
  bool running_ = false;
  sim::TickHub::SubId sub_ = 0;
  std::vector<Sample> series_;
};

}  // namespace ks::metrics
