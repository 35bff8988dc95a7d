// Fused-kernel-stream behavior of the virtual-time device engine: event
// economy, teardown mid-fusion (FreeAll / DetachOwner with callbacks
// dropped), and the event-id exhaustion latch under a long-horizon fused
// soak. Trace-level equivalence against GpuDeviceReference lives in
// device_equivalence_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <tuple>
#include <vector>

#include "gpu/device.hpp"
#include "oracles/device_reference.hpp"
#include "sim/simulation.hpp"

namespace ks::gpu {
namespace {

KernelDesc Step(Duration d) {
  KernelDesc k;
  k.nominal_duration = d;
  k.name = "step";
  return k;
}

/// Appends each unit of `r` to `out` as its own finish time.
void Expand(const UnitRange& r, std::vector<Time>* out) {
  for (int i = 0; i < r.count; ++i) out->push_back(r.At(i));
}

TEST(DeviceFusion, IdleRepeatRetiresOnOneEngineEvent) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-f0"));
  int units = 0;
  Time last{0};
  const std::uint64_t before = sim.lifetime_events();
  dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)), 50,
                   [&](UnitRange r) {
                     units += r.count;
                     last = r.At(r.count - 1);
                   });
  sim.Run();
  EXPECT_EQ(units, 50);
  EXPECT_EQ(last, Millis(500));
  EXPECT_EQ(dev.completed_kernels(), 50u);
  // The whole run rode one armed event.
  EXPECT_EQ(sim.lifetime_events() - before, 1u);
  EXPECT_EQ(dev.utilization().TotalBusy(), Millis(500));
}

TEST(DeviceFusion, ReferenceRetiresSameUnitsWithOneEventEach) {
  sim::Simulation sim;
  GpuDeviceReference dev(&sim, GpuUuid("GPU-r0"));
  int units = 0;
  Time last{0};
  const std::uint64_t before = sim.lifetime_events();
  dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)), 50,
                   [&](UnitRange r) {
                     units += r.count;
                     last = r.At(r.count - 1);
                   });
  sim.Run();
  EXPECT_EQ(units, 50);
  EXPECT_EQ(last, Millis(500));
  EXPECT_EQ(dev.completed_kernels(), 50u);
  EXPECT_EQ(sim.lifetime_events() - before, 50u);
  EXPECT_EQ(dev.utilization().TotalBusy(), Millis(500));
}

TEST(DeviceFusion, ForeignSubmitSplitsWithExactBackTraces) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-f1"));
  std::vector<KernelTraceEvent> trace;
  dev.SetKernelTraceFn([&](const KernelTraceEvent& e) { trace.push_back(e); });
  std::vector<Time> finishes;
  dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)), 10,
                   [&](UnitRange r) { Expand(r, &finishes); });
  bool other_done = false;
  // Lands mid-unit-4: three units are due and must materialize with their
  // original boundary times before the newcomer shares the device.
  sim.ScheduleAt(Millis(35), [&] {
    dev.Submit(ContainerId("c2"), Step(Millis(10)),
               [&] { other_done = true; });
  });
  sim.Run();
  ASSERT_EQ(finishes.size(), 10u);
  EXPECT_TRUE(other_done);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(finishes[static_cast<std::size_t>(i)], Millis(10 * (i + 1)));
    EXPECT_EQ(trace[static_cast<std::size_t>(i)].start, Millis(10 * i));
  }
  // Units 4..10 shared the device with c2 for a while, so they finish later
  // than their unfused boundaries; the total still accounts every unit.
  EXPECT_GT(finishes[3], Millis(40));
  EXPECT_EQ(dev.completed_kernels(), 11u);
}

// Satellite regression: container teardown mid-fusion. CudaContext's
// destructor order is DetachOwner then FreeAll; due units must still be
// counted and traced, dropped callbacks must never fire, and utilization
// must not double-count the dropped tail — busy time ends when the
// non-preemptible in-flight unit retires, not at the fused group's original
// end.
TEST(DeviceFusion, TeardownMidFusionDropsTailWithoutDoubleCounting) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-f2"));
  const ContainerId c1("c1");
  std::vector<KernelTraceEvent> trace;
  dev.SetKernelTraceFn([&](const KernelTraceEvent& e) { trace.push_back(e); });
  ASSERT_TRUE(dev.Allocate(c1, 1024).ok());
  int delivered = 0;
  dev.SubmitRepeat(c1, Step(Millis(10)), 20,
                   [&](UnitRange r) { delivered += r.count; });

  sim.ScheduleAt(Millis(45), [&] {
    dev.DetachOwner(c1);
    dev.FreeAll(c1);
  });
  sim.Run();

  // Four units were due at detach; the fifth was in flight and retired at
  // its normal boundary; units 6..20 never ran.
  EXPECT_EQ(delivered, 0);  // detached before any delivery
  EXPECT_EQ(dev.completed_kernels(), 5u);
  ASSERT_EQ(trace.size(), 5u);
  EXPECT_EQ(trace[4].start, Millis(40));
  EXPECT_EQ(trace[4].finish, Millis(50));
  EXPECT_EQ(dev.used_memory(), 0u);
  EXPECT_FALSE(dev.busy());
  // Utilization covers exactly the five executed units — not the 200 ms
  // the fused group originally spanned.
  EXPECT_EQ(dev.utilization().TotalBusy(), Millis(50));
}

TEST(DeviceFusion, CancelRepeatTailDeliversDueUnitsFirst) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-f3"));
  std::vector<Time> finishes;
  const RepeatId id =
      dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)), 10,
                       [&](UnitRange r) { Expand(r, &finishes); });
  std::size_t cancelled = 0;
  sim.ScheduleAt(Millis(35), [&] { cancelled = dev.CancelRepeatTail(id); });
  sim.Run();
  // 3 due (delivered during the cancel), 1 in flight (retires), 6 cancelled.
  EXPECT_EQ(cancelled, 6u);
  ASSERT_EQ(finishes.size(), 4u);
  EXPECT_EQ(finishes[2], Millis(30));
  EXPECT_EQ(finishes[3], Millis(40));
  EXPECT_EQ(dev.completed_kernels(), 4u);
}

TEST(DeviceFusion, RepeatUnitsFinishedIsAnalyticMidGroup) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-f4"));
  const RepeatId id = dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)),
                                       10, [](UnitRange) {});
  std::size_t at_35 = 0;
  sim.ScheduleAt(Millis(35), [&] { at_35 = dev.RepeatUnitsFinished(id); });
  sim.RunUntil(Millis(35));
  EXPECT_EQ(at_35, 3u);
  EXPECT_EQ(dev.completed_kernels(), 3u);  // analytic, no event fired yet
  sim.Run();
  EXPECT_EQ(dev.completed_kernels(), 10u);
}

// ---- Range retirement ------------------------------------------------------

bool SameRange(const UnitRange& a, const UnitRange& b) {
  return a.first == b.first && a.step == b.step && a.count == b.count;
}

TEST(DeviceFusionRange, FusedRunArrivesAsOneRange) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-g0"));
  std::vector<UnitRange> ranges;
  dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)), 50,
                   [&](UnitRange r) { ranges.push_back(r); });
  sim.Run();
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_TRUE(SameRange(ranges[0], UnitRange{Millis(10), Millis(10), 50}));
  EXPECT_EQ(ranges[0].At(49), Millis(500));
}

TEST(DeviceFusionRange, SplitDeliversDuePrefixAsOneRangeThenSingles) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-g1"));
  std::vector<UnitRange> ranges;
  dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)), 10,
                   [&](UnitRange r) { ranges.push_back(r); });
  sim.ScheduleAt(Millis(35), [&] {
    dev.Submit(ContainerId("c2"), Step(Millis(10)), nullptr);
  });
  sim.Run();
  // Three due units in one range; the in-flight unit and the tail then
  // chain one kernel at a time, each a range of one.
  ASSERT_EQ(ranges.size(), 8u);
  EXPECT_TRUE(SameRange(ranges[0], UnitRange{Millis(10), Millis(10), 3}));
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i].count, 1) << i;
    EXPECT_EQ(ranges[i].step, Duration{0}) << i;
  }
}

TEST(DeviceFusionRange, CancelDeliversDuePrefixAsOneRangeBeforeReturning) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-g2"));
  std::vector<UnitRange> ranges;
  const RepeatId id =
      dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)), 10,
                       [&](UnitRange r) { ranges.push_back(r); });
  std::size_t in_cancel = 0;
  sim.ScheduleAt(Millis(35), [&] {
    EXPECT_EQ(dev.CancelRepeatTail(id), 6u);
    in_cancel = ranges.size();
  });
  sim.Run();
  EXPECT_EQ(in_cancel, 1u);
  ASSERT_EQ(ranges.size(), 2u);
  EXPECT_TRUE(SameRange(ranges[0], UnitRange{Millis(10), Millis(10), 3}));
  EXPECT_TRUE(SameRange(ranges[1], UnitRange::One(Millis(40))));
}

// Kernel ids advance by the run length whether or not a trace observer is
// installed; only the per-unit trace records need the observer.
TEST(DeviceFusionRange, KernelIdsDoNotDependOnTheTraceObserver) {
  sim::Simulation sim_traced;
  sim::Simulation sim_plain;
  GpuDevice traced(&sim_traced, GpuUuid("GPU-g3"));
  GpuDevice plain(&sim_plain, GpuUuid("GPU-g4"));
  std::vector<KernelTraceEvent> trace;
  traced.SetKernelTraceFn(
      [&](const KernelTraceEvent& e) { trace.push_back(e); });
  KernelId next_traced = 0;
  KernelId next_plain = 0;
  for (auto [sim, dev, next] :
       {std::tuple{&sim_traced, &traced, &next_traced},
        std::tuple{&sim_plain, &plain, &next_plain}}) {
    const RepeatId id = dev->SubmitRepeat(ContainerId("c1"), Step(Millis(10)),
                                          20, [](UnitRange) {});
    // Split mid-run, then let the rest retire.
    sim->ScheduleAt(Millis(55), [dev, id] { dev->CancelRepeatTail(id); });
    sim->Run();
    dev->SubmitRepeat(ContainerId("c1"), Step(Millis(10)), 30,
                      [](UnitRange) {});
    sim->Run();
    *next = dev->Submit(ContainerId("c1"), Step(Millis(1)), nullptr);
  }
  // 6 units of the cancelled run (5 due + 1 in flight) and 30 fused.
  EXPECT_EQ(next_traced, 37u);
  EXPECT_EQ(next_plain, next_traced);
  ASSERT_EQ(trace.size(), 36u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].id, i + 1);
  }
  EXPECT_EQ(trace[6].start, Millis(60));
  EXPECT_EQ(trace[35].finish, Millis(360));
  EXPECT_EQ(plain.completed_kernels(), traced.completed_kernels());
}

TEST(DeviceFusionRange, DueUnitsClampToTheRun) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-g5"));
  const RepeatId id = dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)),
                                       10, [](UnitRange) {});
  EXPECT_EQ(dev.RepeatUnitsFinished(id), 0u);
  EXPECT_EQ(dev.completed_kernels(), 0u);
  sim.RunUntil(Millis(99));
  EXPECT_EQ(dev.RepeatUnitsFinished(id), 9u);
  sim.RunUntil(Millis(100));
  EXPECT_EQ(dev.completed_kernels(), 10u);
}

// Satellite soak: drive the fused path against the 2^40 lifetime-event-id
// cap. A long steady stream of fused batches consumes one id per batch;
// when the id space runs out the engine must latch (CapacityStatus turns
// kResourceExhausted, schedules return kInvalidEvent) and the device must
// stall — never abort or corrupt its state.
TEST(DeviceFusionSoak, EventIdExhaustionLatchesInsteadOfAborting) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-soak"));
  const ContainerId c1("c1");

  // Self-resubmitting fused stream: each batch of 100 x 1 ms units rides
  // one event, then its last delivery launches the next batch.
  std::uint64_t units = 0;
  std::function<void()> launch = [&] {
    dev.SubmitRepeat(c1, Step(Millis(1)), 100, [&](UnitRange r) {
      units += static_cast<std::uint64_t>(r.count);
      if (units % 100 == 0) launch();
    });
  };
  launch();
  sim.RunUntil(Seconds(60));  // long horizon: 600 batches, 60000 units
  EXPECT_GE(units, 59900u);
  EXPECT_TRUE(sim.CapacityStatus().ok());

  // Pretend the preceding months of soak consumed nearly the whole id
  // space: a handful of ids remain, then the engine latches.
  sim.InjectLifetimeEventCountForTest((1ull << 40) - 4);
  sim.Run();

  EXPECT_TRUE(sim.exhausted());
  EXPECT_FALSE(sim.CapacityStatus().ok());
  // The device is stalled, not corrupted: its resubmit loop stopped when
  // the engine refused the next event, and introspection still works.
  EXPECT_NO_FATAL_FAILURE({
    (void)dev.completed_kernels();
    (void)dev.active_kernels();
    (void)dev.busy();
  });
  // A post-latch submit is accepted into device state but can never arm an
  // event — the documented stall — and must not crash.
  dev.Submit(c1, Step(Millis(1)), [] {});
  sim.Run();
  EXPECT_TRUE(dev.busy());
}

}  // namespace
}  // namespace ks::gpu
