// Fused-kernel-stream behavior of the virtual-time device engine: event
// economy, teardown mid-fusion (FreeAll / DetachOwner with callbacks
// dropped), and the event-id exhaustion latch under a long-horizon fused
// soak. Trace-level equivalence against GpuDeviceReference lives in
// device_equivalence_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
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

TEST(DeviceFusion, IdleRepeatRetiresOnOneEngineEvent) {
  sim::Simulation sim;
  GpuDevice dev(&sim, GpuUuid("GPU-f0"));
  int units = 0;
  Time last{0};
  const std::uint64_t before = sim.lifetime_events();
  dev.SubmitRepeat(ContainerId("c1"), Step(Millis(10)), 50,
                   [&](Time finish) {
                     ++units;
                     last = finish;
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
                   [&](Time finish) {
                     ++units;
                     last = finish;
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
                   [&](Time finish) { finishes.push_back(finish); });
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
  dev.SubmitRepeat(c1, Step(Millis(10)), 20, [&](Time) { ++delivered; });

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
                       [&](Time finish) { finishes.push_back(finish); });
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
                                       10, [](Time) {});
  std::size_t at_35 = 0;
  sim.ScheduleAt(Millis(35), [&] { at_35 = dev.RepeatUnitsFinished(id); });
  sim.RunUntil(Millis(35));
  EXPECT_EQ(at_35, 3u);
  EXPECT_EQ(dev.completed_kernels(), 3u);  // analytic, no event fired yet
  sim.Run();
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
    dev.SubmitRepeat(c1, Step(Millis(1)), 100, [&](Time) {
      ++units;
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
