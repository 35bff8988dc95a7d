#include "vgpu/frontend_hook.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cuda/context.hpp"
#include "gpu/device.hpp"

namespace ks::vgpu {
namespace {

/// Builds the full per-container stack the paper deploys inside a
/// container: workload -> FrontendHook (LD_PRELOAD seam) -> CudaContext
/// (driver) -> GpuDevice.
struct ContainerStack {
  ContainerStack(sim::Simulation* /*sim*/, gpu::GpuDevice* dev,
                 TokenBackend* backend, const std::string& name,
                 ResourceSpec spec)
      : ctx(dev, ContainerId(name)),
        hook(&ctx, backend, ContainerId(name), dev->uuid(), spec,
             dev->spec().memory_bytes) {}

  cuda::CudaContext ctx;
  FrontendHook hook;
};

class FrontendHookTest : public ::testing::Test {
 protected:
  FrontendHookTest() {
    cfg_.quota = Millis(100);
    cfg_.exchange_latency = Micros(1500);
    cfg_.usage_window = Seconds(10);
    backend_ = std::make_unique<TokenBackend>(&sim_, cfg_);
  }

  sim::Simulation sim_;
  BackendConfig cfg_;
  gpu::GpuDevice dev_{&sim_, GpuUuid("GPU-0")};
  std::unique_ptr<TokenBackend> backend_;
};

TEST_F(FrontendHookTest, MemAllocWithinQuotaPasses) {
  ResourceSpec spec;
  spec.gpu_mem = 0.5;
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  gpu::DevicePtr p = 0;
  EXPECT_EQ(c.hook.MemAlloc(&p, dev_.spec().memory_bytes / 2),
            cuda::CudaResult::kSuccess);
  EXPECT_EQ(c.hook.AllocatedBytes(), dev_.spec().memory_bytes / 2);
}

TEST_F(FrontendHookTest, MemAllocBeyondQuotaRejectedBeforeDriver) {
  ResourceSpec spec;
  spec.gpu_mem = 0.25;
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  gpu::DevicePtr p = 0;
  EXPECT_EQ(c.hook.MemAlloc(&p, dev_.spec().memory_bytes / 2),
            cuda::CudaResult::kErrorOutOfMemory);
  // The device itself never saw the allocation — rejection happens in the
  // interposed library, as in the paper.
  EXPECT_EQ(dev_.used_memory(), 0u);
  EXPECT_EQ(c.hook.oom_rejections(), 1u);
}

TEST_F(FrontendHookTest, QuotaFreesReusableAfterMemFree) {
  ResourceSpec spec;
  spec.gpu_mem = 0.25;
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  const std::uint64_t quarter = dev_.spec().memory_bytes / 4;
  gpu::DevicePtr p = 0;
  ASSERT_EQ(c.hook.MemAlloc(&p, quarter), cuda::CudaResult::kSuccess);
  EXPECT_EQ(c.hook.MemAlloc(&p, 1), cuda::CudaResult::kErrorOutOfMemory);
  ASSERT_EQ(c.hook.MemFree(p), cuda::CudaResult::kSuccess);
  EXPECT_EQ(c.hook.MemAlloc(&p, quarter), cuda::CudaResult::kSuccess);
}

TEST_F(FrontendHookTest, ArrayCreateGoesThroughQuota) {
  ResourceSpec spec;
  spec.gpu_mem = 1.0 / 1024.0;
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  gpu::DevicePtr p = 0;
  // 16MB quota; a 4K x 4K float array = 64MB must be rejected.
  EXPECT_EQ(c.hook.ArrayCreate(&p, 4096, 4096, 4),
            cuda::CudaResult::kErrorOutOfMemory);
  EXPECT_EQ(c.hook.ArrayCreate(&p, 1024, 1024, 4),
            cuda::CudaResult::kSuccess);
}

TEST_F(FrontendHookTest, KernelWaitsForToken) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  bool done = false;
  ASSERT_EQ(c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream,
                                [&] { done = true; }),
            cuda::CudaResult::kSuccess);
  // Nothing reaches the device until the token exchange completes.
  EXPECT_FALSE(dev_.busy());
  sim_.RunUntil(Millis(1));
  EXPECT_FALSE(done);
  sim_.RunUntil(Millis(15));
  EXPECT_TRUE(done);
}

TEST_F(FrontendHookTest, TokenReleasedEarlyWhenQueueDrains) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  ASSERT_EQ(c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream,
                                nullptr),
            cuda::CudaResult::kSuccess);
  sim_.RunUntil(Millis(20));
  // Kernel finished well inside the 100ms quota; the holder must have
  // revoked its own token ("revoked by its holder").
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
  EXPECT_FALSE(c.hook.holds_valid_token());
}

TEST_F(FrontendHookTest, ExpiryStopsSubmissionUntilRegrant) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  // 30 kernels x 10ms = 300ms of work vs 100ms quota: needs >= 3 grants.
  int done = 0;
  for (int i = 0; i < 30; ++i) {
    ASSERT_EQ(c.hook.LaunchKernel({Millis(10), 0.0, "k"},
                                  cuda::kDefaultStream, [&] { ++done; }),
              cuda::CudaResult::kSuccess);
  }
  sim_.Run();
  EXPECT_EQ(done, 30);
  EXPECT_GE(backend_->grants(), 3u);
}

TEST_F(FrontendHookTest, TwoContainersAlternateViaToken) {
  ContainerStack a(&sim_, &dev_, backend_.get(), "a", ResourceSpec{});
  ContainerStack b(&sim_, &dev_, backend_.get(), "b", ResourceSpec{});
  int done_a = 0, done_b = 0;
  for (int i = 0; i < 20; ++i) {
    a.hook.LaunchKernel({Millis(20), 0.0, "ka"}, cuda::kDefaultStream,
                        [&] { ++done_a; });
    b.hook.LaunchKernel({Millis(20), 0.0, "kb"}, cuda::kDefaultStream,
                        [&] { ++done_b; });
  }
  sim_.Run();
  EXPECT_EQ(done_a, 20);
  EXPECT_EQ(done_b, 20);
  // Token isolation means the device never ran kernels of both containers
  // concurrently, so overall runtime ~= serial sum (800ms) + exchanges.
  EXPECT_GE(Duration(sim_.Now()), Millis(800));
}

TEST_F(FrontendHookTest, NonPreemptiveKernelOverrunsQuota) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  // A single 250ms kernel: the quota (100ms) expires mid-kernel; the kernel
  // must still complete (CUDA kernels are non-preemptive).
  bool done = false;
  c.hook.LaunchKernel({Millis(250), 0.0, "long"}, cuda::kDefaultStream,
                      [&] { done = true; });
  sim_.RunUntil(Millis(200));
  EXPECT_FALSE(done);
  EXPECT_EQ(backend_->HolderOf(dev_.uuid()), ContainerId("c1"));  // overrun
  sim_.RunUntil(Millis(300));
  EXPECT_TRUE(done);
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
}

TEST_F(FrontendHookTest, SynchronizeCoversQueuedKernels) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  bool synced = false;
  c.hook.LaunchKernel({Millis(50), 0.0, "k"}, cuda::kDefaultStream, nullptr);
  c.hook.Synchronize([&] { synced = true; });
  EXPECT_FALSE(synced);
  sim_.Run();
  EXPECT_TRUE(synced);
}

TEST_F(FrontendHookTest, StreamLifecycleForwarded) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  cuda::StreamId s = 0;
  ASSERT_EQ(c.hook.StreamCreate(&s), cuda::CudaResult::kSuccess);
  c.hook.LaunchKernel({Millis(5), 0.0, "k"}, s, nullptr);
  EXPECT_EQ(c.hook.StreamDestroy(s), cuda::CudaResult::kErrorNotReady);
  sim_.Run();
  EXPECT_EQ(c.hook.StreamDestroy(s), cuda::CudaResult::kSuccess);
}

TEST_F(FrontendHookTest, LaunchOnUnknownStreamFails) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  EXPECT_EQ(c.hook.LaunchKernel({Millis(5), 0.0, "k"}, 777, nullptr),
            cuda::CudaResult::kErrorInvalidHandle);
}

TEST_F(FrontendHookTest, EventsKeepOrderThroughTheHookQueues) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  cuda::EventId ev = 0;
  ASSERT_EQ(c.hook.EventCreate(&ev), cuda::CudaResult::kSuccess);
  // Two kernels queue in the hook (no token yet), then the event: it must
  // not complete before both kernels retire.
  c.hook.LaunchKernel({Millis(30), 0.0, "a"}, cuda::kDefaultStream, nullptr);
  c.hook.LaunchKernel({Millis(30), 0.0, "b"}, cuda::kDefaultStream, nullptr);
  ASSERT_EQ(c.hook.EventRecord(ev, cuda::kDefaultStream),
            cuda::CudaResult::kSuccess);
  EXPECT_EQ(c.hook.EventQuery(ev), cuda::CudaResult::kErrorNotReady);
  Time fired{0};
  ASSERT_EQ(c.hook.EventSynchronize(ev, [&] { fired = sim_.Now(); }),
            cuda::CudaResult::kSuccess);
  sim_.Run();
  EXPECT_EQ(c.hook.EventQuery(ev), cuda::CudaResult::kSuccess);
  // Exchange (~1.5 ms) + 60 ms of kernels.
  EXPECT_GE(fired, Millis(60));
}

TEST_F(FrontendHookTest, EventOnEmptyHookQueueCompletesWithoutToken) {
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  cuda::EventId ev = 0;
  ASSERT_EQ(c.hook.EventCreate(&ev), cuda::CudaResult::kSuccess);
  ASSERT_EQ(c.hook.EventRecord(ev, cuda::kDefaultStream),
            cuda::CudaResult::kSuccess);
  // No kernels, no token needed — events consume no GPU time.
  EXPECT_EQ(c.hook.EventQuery(ev), cuda::CudaResult::kSuccess);
  EXPECT_FALSE(backend_->HolderOf(dev_.uuid()).has_value());
}

TEST_F(FrontendHookTest, EventElapsedTimeSpansThrottledKernels) {
  ResourceSpec spec;
  spec.gpu_request = 0.2;
  spec.gpu_limit = 0.5;  // throttled to half speed
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", spec);
  cuda::EventId start = 0, end = 0;
  c.hook.EventCreate(&start);
  c.hook.EventCreate(&end);
  c.hook.EventRecord(start, cuda::kDefaultStream);
  for (int i = 0; i < 100; ++i) {
    c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream,
                        nullptr);
  }
  c.hook.EventRecord(end, cuda::kDefaultStream);
  sim_.Run();
  Duration elapsed{0};
  ASSERT_EQ(c.hook.EventElapsedTime(&elapsed, start, end),
            cuda::CudaResult::kSuccess);
  // 1 s of kernels at <=0.5 usage -> ~2 s between the events.
  EXPECT_GE(elapsed, Millis(1900));
}

TEST_F(FrontendHookTest, ThroughputRatioMatchesQuotaOverhead) {
  // Fig 7 in miniature: a continuously-busy container's goodput fraction is
  // quota / (quota + exchange).
  ContainerStack c(&sim_, &dev_, backend_.get(), "c1", ResourceSpec{});
  int done = 0;
  std::function<void()> next = [&] {
    ++done;
    c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream, next);
  };
  c.hook.LaunchKernel({Millis(10), 0.0, "k"}, cuda::kDefaultStream, next);
  sim_.RunUntil(Seconds(10));
  const double expected =
      ToSeconds(cfg_.quota) / ToSeconds(cfg_.quota + cfg_.exchange_latency);
  const double measured = static_cast<double>(done) * 0.010 / 10.0;
  EXPECT_NEAR(measured, expected, 0.02);
}


// ---- Range retirement ------------------------------------------------------
// A forwarded batch retires back through the driver as unit ranges; the hook
// splits each only where it crosses from one source launch to the next.

struct Delivery {
  int tag = 0;
  gpu::UnitRange units;
  bool synced = false;
};

class FrontendHookRangeTest : public FrontendHookTest {
 protected:
  FrontendHookRangeTest()
      : c_(std::make_unique<ContainerStack>(&sim_, &dev_, backend_.get(), "c1",
                                            ResourceSpec{})) {}

  gpu::UnitDoneFn Record(int tag) {
    return [this, tag](gpu::UnitRange r) { log_.push_back({tag, r, synced_}); };
  }
  void Launch(int tag, int count,
              cuda::StreamId stream = cuda::kDefaultStream) {
    ASSERT_EQ(c_->hook.LaunchKernelStream(step_, count, stream, Record(tag)),
              cuda::CudaResult::kSuccess);
  }
  /// The delivered ranges expanded to one (tag, finish) pair per unit, in
  /// delivery order — what a job sees.
  std::vector<std::pair<int, Time>> Units() const {
    std::vector<std::pair<int, Time>> out;
    for (const Delivery& d : log_) {
      EXPECT_GE(d.units.count, 1) << "empty range for tag " << d.tag;
      for (int i = 0; i < d.units.count; ++i) {
        out.emplace_back(d.tag, d.units.At(i));
      }
    }
    return out;
  }
  /// Every launch's units arrive exactly once, launches in FIFO order, and
  /// finish times strictly increase (one stream runs one unit at a time).
  void ExpectUnitsInOrder(const std::vector<std::pair<int, int>>& launches) {
    const auto units = Units();
    std::vector<int> want;
    for (const auto& [tag, count] : launches) {
      want.insert(want.end(), count, tag);
    }
    std::vector<int> got;
    for (const auto& u : units) got.push_back(u.first);
    EXPECT_EQ(got, want);
    for (std::size_t i = 1; i < units.size(); ++i) {
      EXPECT_LT(units[i - 1].second, units[i].second) << "unit " << i;
    }
  }

  const gpu::KernelDesc step_{Millis(10), 0.0, "step"};
  std::unique_ptr<ContainerStack> c_;
  std::vector<Delivery> log_;
  bool synced_ = false;
};

TEST_F(FrontendHookRangeTest, RangeSplitsOnlyAtSourceLaunchBoundaries) {
  // 9 x 10 ms fits one 100 ms grant: one forwarded batch, fused on the
  // device, back as one range that the hook splits per source launch.
  Launch(1, 2);
  Launch(2, 3);
  Launch(3, 4);
  sim_.Run();
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[0].units.count, 2);
  EXPECT_EQ(log_[1].units.count, 3);
  EXPECT_EQ(log_[2].units.count, 4);
  for (const Delivery& d : log_) EXPECT_EQ(d.units.step, Millis(10));
  EXPECT_EQ(log_[1].units.first, log_[0].units.At(2));
  EXPECT_EQ(log_[2].units.first, log_[1].units.At(3));
  ExpectUnitsInOrder({{1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(c_->hook.PendingKernels(), 0u);
  EXPECT_EQ(c_->hook.RetiredUnits(cuda::kDefaultStream), 9u);
}

TEST_F(FrontendHookRangeTest, PartialTakeInDrainKeepsTheRemainder) {
  // 25 units outgrow a grant: Drain forwards a partial take of the first
  // launch and keeps its callback for the remainder.
  Launch(1, 25);
  Launch(2, 3);
  sim_.Run();
  ASSERT_GE(log_.size(), 3u);
  EXPECT_EQ(log_[0].tag, 1);
  EXPECT_EQ(log_[0].units.count, 9);  // fit - 1 units of the first grant
  ExpectUnitsInOrder({{1, 25}, {2, 3}});
  EXPECT_EQ(c_->hook.PendingKernels(), 0u);
  EXPECT_GE(backend_->grants(), 3u);
}

TEST_F(FrontendHookRangeTest, SynchronizeFiresOnlyAfterTheLastChunk) {
  Launch(1, 2);
  Launch(2, 3);
  Launch(3, 4);
  ASSERT_EQ(c_->hook.Synchronize([&] { synced_ = true; }),
            cuda::CudaResult::kSuccess);
  sim_.Run();
  ASSERT_EQ(log_.size(), 3u);
  for (const Delivery& d : log_) EXPECT_FALSE(d.synced) << "tag " << d.tag;
  EXPECT_TRUE(synced_);
}

TEST_F(FrontendHookRangeTest, CallbackLaunchingAtChunkBoundaryRunsAfterBatch) {
  ASSERT_EQ(c_->hook.LaunchKernelStream(step_, 2, cuda::kDefaultStream,
                                        [&](gpu::UnitRange r) {
                                          log_.push_back({1, r});
                                          Launch(4, 2);
                                        }),
            cuda::CudaResult::kSuccess);
  Launch(2, 3);
  Launch(3, 4);
  sim_.Run();
  ExpectUnitsInOrder({{1, 2}, {2, 3}, {3, 4}, {4, 2}});
  EXPECT_EQ(c_->hook.PendingKernels(), 0u);
}

TEST_F(FrontendHookRangeTest, CancelMidGroupDeliversDuePrefixFirst) {
  Launch(1, 2);
  Launch(2, 3);
  Launch(3, 4);
  std::size_t cancelled = 0;
  std::size_t delivered_in_cancel = 0;
  // The batch starts at the grant (~1.5 ms): at 40 ms three units are due
  // and the fourth is in flight.
  sim_.ScheduleAt(Millis(40), [&] {
    cancelled = c_->hook.CancelPending(cuda::kDefaultStream);
    delivered_in_cancel = log_.size();
  });
  sim_.Run();
  EXPECT_EQ(cancelled, 5u);
  EXPECT_EQ(delivered_in_cancel, 2u);
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[0].units.count, 2);
  EXPECT_EQ(log_[1].units.count, 1);
  EXPECT_EQ(log_[1].units.first, log_[0].units.At(2));
  // The in-flight unit retires on its own, at its unfused boundary.
  EXPECT_EQ(log_[2].tag, 2);
  EXPECT_EQ(log_[2].units.count, 1);
  EXPECT_EQ(log_[2].units.first, log_[0].units.At(3));
  EXPECT_EQ(c_->hook.PendingKernels(), 0u);
  EXPECT_FALSE(c_->hook.holds_valid_token());
}

TEST_F(FrontendHookRangeTest, RecallAfterPartialDeliveryReturnsOnlyTheTail) {
  Launch(1, 2);
  Launch(2, 3);
  Launch(3, 4);
  // A foreign kernel splits the fused batch at ~27 ms: the two due units
  // arrive as one range and the rest chain one at a time. The daemon
  // restarts meanwhile; when it comes back (~55 ms) the hook recalls the
  // batch's unstarted tail and forwards it again under the new grant.
  sim_.ScheduleAt(Millis(5), [&] { backend_->Restart(); });
  sim_.ScheduleAt(Millis(27), [&] {
    dev_.Submit(ContainerId("x"), {Millis(1), 0.0, "foreign"}, nullptr);
  });
  sim_.Run();
  ASSERT_FALSE(log_.empty());
  EXPECT_EQ(log_[0].tag, 1);
  EXPECT_EQ(log_[0].units.count, 2);
  ExpectUnitsInOrder({{1, 2}, {2, 3}, {3, 4}});
  // The recalled tail came back as one forwarded batch: one range.
  EXPECT_EQ(log_.back().tag, 3);
  EXPECT_GE(log_.back().units.count, 2);
  EXPECT_EQ(backend_->restarts(), 1u);
  EXPECT_EQ(c_->hook.PendingKernels(), 0u);
}

TEST_F(FrontendHookRangeTest, SyncWaiterAddedMidRangeMayDestroyTheStream) {
  cuda::StreamId s = 0;
  ASSERT_EQ(c_->hook.StreamCreate(&s), cuda::CudaResult::kSuccess);
  cuda::CudaResult destroyed = cuda::CudaResult::kErrorNotReady;
  ASSERT_EQ(c_->hook.LaunchKernelStream(
                step_, 2, s,
                [&](gpu::UnitRange r) {
                  log_.push_back({1, r});
                  c_->hook.Synchronize(
                      [&] { destroyed = c_->hook.StreamDestroy(s); });
                }),
            cuda::CudaResult::kSuccess);
  Launch(2, 3, s);
  sim_.Run();
  ExpectUnitsInOrder({{1, 2}, {2, 3}});
  // The waiter ran once the last chunk was in; both the hook's and the
  // driver's stream are gone and neither layer touched them again.
  EXPECT_EQ(destroyed, cuda::CudaResult::kSuccess);
  EXPECT_EQ(c_->hook.LaunchKernel(step_, s, nullptr),
            cuda::CudaResult::kErrorInvalidHandle);
  EXPECT_EQ(c_->ctx.LaunchKernel(step_, s, nullptr),
            cuda::CudaResult::kErrorInvalidHandle);
  EXPECT_EQ(c_->hook.PendingKernels(), 0u);
  EXPECT_FALSE(c_->hook.holds_valid_token());
}

}  // namespace
}  // namespace ks::vgpu
