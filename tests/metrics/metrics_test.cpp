#include <gtest/gtest.h>

#include "metrics/sampler.hpp"
#include "metrics/throughput.hpp"
#include "sim/tick_hub.hpp"

namespace ks::metrics {
namespace {

TEST(PeriodicSampler, SamplesAtPeriod) {
  sim::Simulation sim;
  sim::TickHub hub(&sim);
  int value = 0;
  PeriodicSampler sampler(&hub, Seconds(1), [&] {
    return static_cast<double>(++value);
  });
  sampler.Start();
  sim.RunUntil(Seconds(5));
  sampler.Stop();
  ASSERT_EQ(sampler.series().size(), 5u);
  EXPECT_EQ(sampler.series()[0].at, Seconds(1));
  EXPECT_DOUBLE_EQ(sampler.series()[4].value, 5.0);
  EXPECT_DOUBLE_EQ(sampler.MaxValue(), 5.0);
  EXPECT_DOUBLE_EQ(sampler.MeanValue(), 3.0);
}

TEST(PeriodicSampler, StopPreventsFurtherSamples) {
  sim::Simulation sim;
  sim::TickHub hub(&sim);
  PeriodicSampler sampler(&hub, Seconds(1), [] { return 1.0; });
  sampler.Start();
  sim.RunUntil(Seconds(2));
  sampler.Stop();
  sim.RunUntil(Seconds(10));
  EXPECT_EQ(sampler.series().size(), 2u);
}

TEST(PeriodicSampler, EmptySeriesStats) {
  sim::Simulation sim;
  sim::TickHub hub(&sim);
  PeriodicSampler sampler(&hub, Seconds(1), [] { return 1.0; });
  EXPECT_DOUBLE_EQ(sampler.MaxValue(), 0.0);
  EXPECT_DOUBLE_EQ(sampler.MeanValue(), 0.0);
}

TEST(ThroughputTimeline, OverallRate) {
  ThroughputTimeline tl;
  for (int i = 1; i <= 10; ++i) tl.NoteCompletion(Seconds(i * 6));
  // 10 jobs in 60 seconds.
  EXPECT_DOUBLE_EQ(tl.OverallJobsPerMinute(), 10.0);
  EXPECT_EQ(tl.count(), 10u);
  EXPECT_EQ(tl.last_completion(), Seconds(60));
}

TEST(ThroughputTimeline, WindowedRate) {
  ThroughputTimeline tl;
  for (int i = 0; i < 30; ++i) tl.NoteCompletion(Seconds(i));
  EXPECT_DOUBLE_EQ(tl.JobsPerMinute(Seconds(0), Seconds(30)), 60.0);
  EXPECT_DOUBLE_EQ(tl.JobsPerMinute(Seconds(100), Seconds(130)), 0.0);
  EXPECT_DOUBLE_EQ(tl.JobsPerMinute(Seconds(30), Seconds(30)), 0.0);
}

TEST(ThroughputTimeline, PeakRate) {
  ThroughputTimeline tl;
  // Burst of 10 completions at t=100s, nothing else.
  for (int i = 0; i < 10; ++i) tl.NoteCompletion(Seconds(100) + Millis(i));
  tl.NoteCompletion(Seconds(500));
  EXPECT_GE(tl.PeakJobsPerMinute(Seconds(10)), 60.0);
  EXPECT_DOUBLE_EQ(tl.PeakJobsPerMinute(Duration{0}), 0.0);
}

TEST(ThroughputTimeline, EmptyTimeline) {
  ThroughputTimeline tl;
  EXPECT_DOUBLE_EQ(tl.OverallJobsPerMinute(), 0.0);
  EXPECT_DOUBLE_EQ(tl.PeakJobsPerMinute(Seconds(10)), 0.0);
}

}  // namespace
}  // namespace ks::metrics
