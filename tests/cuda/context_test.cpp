#include "cuda/context.hpp"

#include <gtest/gtest.h>

namespace ks::cuda {
namespace {

class CudaContextTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  gpu::GpuDevice dev_{&sim_, GpuUuid("GPU-X")};
  CudaContext ctx_{&dev_, ContainerId("job-1")};
};

TEST_F(CudaContextTest, MemAllocAndFree) {
  gpu::DevicePtr p = 0;
  EXPECT_EQ(ctx_.MemAlloc(&p, 1 << 20), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.AllocatedBytes(), 1u << 20);
  EXPECT_EQ(ctx_.MemFree(p), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.AllocatedBytes(), 0u);
}

TEST_F(CudaContextTest, MemAllocRejectsBadArgs) {
  gpu::DevicePtr p = 0;
  EXPECT_EQ(ctx_.MemAlloc(nullptr, 1), CudaResult::kErrorInvalidValue);
  EXPECT_EQ(ctx_.MemAlloc(&p, 0), CudaResult::kErrorInvalidValue);
}

TEST_F(CudaContextTest, MemAllocOutOfMemory) {
  gpu::DevicePtr p = 0;
  EXPECT_EQ(ctx_.MemAlloc(&p, dev_.spec().memory_bytes + 1),
            CudaResult::kErrorOutOfMemory);
}

TEST_F(CudaContextTest, FreeForeignPointerFails) {
  EXPECT_EQ(ctx_.MemFree(12345), CudaResult::kErrorInvalidValue);
}

TEST_F(CudaContextTest, ArrayCreateAllocatesProduct) {
  gpu::DevicePtr p = 0;
  EXPECT_EQ(ctx_.ArrayCreate(&p, 100, 100, 4), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.AllocatedBytes(), 40000u);
  EXPECT_EQ(ctx_.ArrayCreate(&p, 0, 100, 4), CudaResult::kErrorInvalidValue);
}

TEST_F(CudaContextTest, DefaultStreamKernelsRunFifo) {
  std::vector<int> order;
  ASSERT_EQ(ctx_.LaunchKernel({Millis(10), 0.0, "a"}, kDefaultStream,
                              [&] { order.push_back(1); }),
            CudaResult::kSuccess);
  ASSERT_EQ(ctx_.LaunchKernel({Millis(10), 0.0, "b"}, kDefaultStream,
                              [&] { order.push_back(2); }),
            CudaResult::kSuccess);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // FIFO: serialized, so ~20ms total, not 20ms of 2-way sharing.
  EXPECT_NEAR(ToMillis(Duration(sim_.Now())), 20.0, 0.1);
}

TEST_F(CudaContextTest, DistinctStreamsOverlap) {
  StreamId s = 0;
  ASSERT_EQ(ctx_.StreamCreate(&s), CudaResult::kSuccess);
  Time t1{0}, t2{0};
  ctx_.LaunchKernel({Millis(10), 0.0, "a"}, kDefaultStream,
                    [&] { t1 = sim_.Now(); });
  ctx_.LaunchKernel({Millis(10), 0.0, "b"}, s, [&] { t2 = sim_.Now(); });
  sim_.Run();
  // Overlapping processor-sharing: both finish at ~20ms.
  EXPECT_NEAR(ToMillis(Duration(t1)), 20.0, 0.1);
  EXPECT_NEAR(ToMillis(Duration(t2)), 20.0, 0.1);
}

TEST_F(CudaContextTest, LaunchOnUnknownStreamFails) {
  EXPECT_EQ(ctx_.LaunchKernel({Millis(1), 0.0, "x"}, 999, nullptr),
            CudaResult::kErrorInvalidHandle);
}

TEST_F(CudaContextTest, LaunchZeroDurationFails) {
  EXPECT_EQ(ctx_.LaunchKernel({Duration{0}, 0.0, "x"}, kDefaultStream, nullptr),
            CudaResult::kErrorInvalidValue);
}

TEST_F(CudaContextTest, StreamDestroyRules) {
  StreamId s = 0;
  ASSERT_EQ(ctx_.StreamCreate(&s), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.StreamDestroy(kDefaultStream), CudaResult::kErrorInvalidValue);
  EXPECT_EQ(ctx_.StreamDestroy(999), CudaResult::kErrorInvalidHandle);
  ctx_.LaunchKernel({Millis(5), 0.0, "x"}, s, nullptr);
  EXPECT_EQ(ctx_.StreamDestroy(s), CudaResult::kErrorNotReady);
  sim_.Run();
  EXPECT_EQ(ctx_.StreamDestroy(s), CudaResult::kSuccess);
}

TEST_F(CudaContextTest, SynchronizeFiresAfterAllWork) {
  bool synced = false;
  ctx_.LaunchKernel({Millis(10), 0.0, "a"}, kDefaultStream, nullptr);
  ctx_.LaunchKernel({Millis(10), 0.0, "b"}, kDefaultStream, nullptr);
  ctx_.Synchronize([&] { synced = true; });
  EXPECT_FALSE(synced);
  sim_.Run();
  EXPECT_TRUE(synced);
}

TEST_F(CudaContextTest, SynchronizeFiresImmediatelyWhenIdle) {
  bool synced = false;
  ctx_.Synchronize([&] { synced = true; });
  EXPECT_TRUE(synced);
}

TEST_F(CudaContextTest, PendingKernelsCountsQueuedWork) {
  ctx_.LaunchKernel({Millis(10), 0.0, "a"}, kDefaultStream, nullptr);
  ctx_.LaunchKernel({Millis(10), 0.0, "b"}, kDefaultStream, nullptr);
  EXPECT_EQ(ctx_.PendingKernels(), 2u);
  sim_.Run();
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
}

TEST_F(CudaContextTest, DestructorFreesDeviceMemory) {
  {
    CudaContext tmp(&dev_, ContainerId("ephemeral"));
    gpu::DevicePtr p = 0;
    ASSERT_EQ(tmp.MemAlloc(&p, 1 << 20), CudaResult::kSuccess);
    EXPECT_GE(dev_.used_memory(), 1u << 20);
  }
  EXPECT_EQ(dev_.used_memory(), 0u);
}

TEST_F(CudaContextTest, EventCompletesAfterPriorKernels) {
  EventId ev = 0;
  ASSERT_EQ(ctx_.EventCreate(&ev), CudaResult::kSuccess);
  ctx_.LaunchKernel({Millis(10), 0.0, "a"}, kDefaultStream, nullptr);
  ctx_.LaunchKernel({Millis(10), 0.0, "b"}, kDefaultStream, nullptr);
  ASSERT_EQ(ctx_.EventRecord(ev, kDefaultStream), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.EventQuery(ev), CudaResult::kErrorNotReady);
  bool fired = false;
  ASSERT_EQ(ctx_.EventSynchronize(ev, [&] { fired = true; }),
            CudaResult::kSuccess);
  sim_.Run();
  EXPECT_EQ(ctx_.EventQuery(ev), CudaResult::kSuccess);
  EXPECT_TRUE(fired);
}

TEST_F(CudaContextTest, EventOnIdleStreamCompletesImmediately) {
  EventId ev = 0;
  ASSERT_EQ(ctx_.EventCreate(&ev), CudaResult::kSuccess);
  ASSERT_EQ(ctx_.EventRecord(ev, kDefaultStream), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.EventQuery(ev), CudaResult::kSuccess);
  bool fired = false;
  ctx_.EventSynchronize(ev, [&] { fired = true; });
  EXPECT_TRUE(fired);  // immediate for complete events
}

TEST_F(CudaContextTest, EventElapsedTimeMeasuresKernelSpan) {
  EventId start = 0, end = 0;
  ASSERT_EQ(ctx_.EventCreate(&start), CudaResult::kSuccess);
  ASSERT_EQ(ctx_.EventCreate(&end), CudaResult::kSuccess);
  ctx_.EventRecord(start, kDefaultStream);  // completes at t=0
  ctx_.LaunchKernel({Millis(30), 0.0, "k"}, kDefaultStream, nullptr);
  ctx_.EventRecord(end, kDefaultStream);
  Duration elapsed{0};
  EXPECT_EQ(ctx_.EventElapsedTime(&elapsed, start, end),
            CudaResult::kErrorNotReady);
  sim_.Run();
  ASSERT_EQ(ctx_.EventElapsedTime(&elapsed, start, end),
            CudaResult::kSuccess);
  EXPECT_NEAR(ToMillis(elapsed), 30.0, 0.1);
}

TEST_F(CudaContextTest, EventErrorPaths) {
  EventId ev = 0;
  EXPECT_EQ(ctx_.EventCreate(nullptr), CudaResult::kErrorInvalidValue);
  ASSERT_EQ(ctx_.EventCreate(&ev), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.EventQuery(ev), CudaResult::kErrorInvalidValue);  // unrecorded
  EXPECT_EQ(ctx_.EventRecord(ev, 999), CudaResult::kErrorInvalidHandle);
  EXPECT_EQ(ctx_.EventRecord(999, kDefaultStream),
            CudaResult::kErrorInvalidHandle);
  EXPECT_EQ(ctx_.EventDestroy(ev), CudaResult::kSuccess);
  EXPECT_EQ(ctx_.EventDestroy(ev), CudaResult::kErrorInvalidHandle);
}

TEST_F(CudaContextTest, ReRecordResetsEvent) {
  EventId ev = 0;
  ASSERT_EQ(ctx_.EventCreate(&ev), CudaResult::kSuccess);
  ctx_.EventRecord(ev, kDefaultStream);
  EXPECT_EQ(ctx_.EventQuery(ev), CudaResult::kSuccess);
  ctx_.LaunchKernel({Millis(10), 0.0, "k"}, kDefaultStream, nullptr);
  ctx_.EventRecord(ev, kDefaultStream);
  EXPECT_EQ(ctx_.EventQuery(ev), CudaResult::kErrorNotReady);
  sim_.Run();
  EXPECT_EQ(ctx_.EventQuery(ev), CudaResult::kSuccess);
}

TEST_F(CudaContextTest, CompletionCallbackCanLaunchAgain) {
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 3) {
      ctx_.LaunchKernel({Millis(5), 0.0, "chain"}, kDefaultStream, next);
    }
  };
  ctx_.LaunchKernel({Millis(5), 0.0, "chain"}, kDefaultStream, next);
  sim_.Run();
  EXPECT_EQ(chain, 3);
}


// ---- Range retirement ------------------------------------------------------
// A fused device run reaches the context as one unit range; the context
// splits it only where it crosses from one coalesced launch to the next.

/// One delivered range, tagged with the launch it belongs to, plus the
/// context's counters and sync state as the callback saw them.
struct Delivery {
  int tag = 0;
  gpu::UnitRange units;
  std::size_t retired = 0;
  std::size_t pending = 0;
  bool synced = false;
};

class CudaContextRangeTest : public CudaContextTest {
 protected:
  const gpu::KernelDesc step_{Millis(10), 0.0, "step"};

  gpu::UnitDoneFn Record(int tag, StreamId stream = kDefaultStream) {
    return [this, tag, stream](gpu::UnitRange r) {
      log_.push_back({tag, r, ctx_.RetiredUnits(stream),
                      ctx_.PendingKernels(), synced_});
    };
  }
  /// A 5 ms kernel ahead of the launches under test: while it runs they
  /// queue, and when it retires they coalesce into one device batch.
  void Gate(StreamId stream = kDefaultStream) {
    ASSERT_EQ(ctx_.LaunchKernel({Millis(5), 0.0, "gate"}, stream, nullptr),
              CudaResult::kSuccess);
  }
  void Launch(int tag, int count, StreamId stream = kDefaultStream) {
    ASSERT_EQ(
        ctx_.LaunchKernelStream(step_, count, stream, Record(tag, stream)),
        CudaResult::kSuccess);
  }

  std::vector<Delivery> log_;
  bool synced_ = false;
};

void ExpectRange(const Delivery& d, int tag, Time first, Duration step,
                 int count) {
  EXPECT_EQ(d.tag, tag);
  EXPECT_EQ(d.units.first, first) << "tag " << tag;
  EXPECT_EQ(d.units.step, step) << "tag " << tag;
  EXPECT_EQ(d.units.count, count) << "tag " << tag;
}

TEST_F(CudaContextRangeTest, RangeSplitsOnlyAtLaunchBoundaries) {
  Gate();
  Launch(1, 2);
  Launch(2, 3);
  Launch(3, 4);
  const std::uint64_t before = sim_.lifetime_events();
  sim_.Run();
  // The 9-unit batch ran fused from 5 ms: it armed one engine event (the
  // gate's was armed before `before`), and made one delivery per launch.
  EXPECT_EQ(sim_.lifetime_events() - before, 1u);
  ASSERT_EQ(log_.size(), 3u);
  ExpectRange(log_[0], 1, Millis(15), Millis(10), 2);
  ExpectRange(log_[1], 2, Millis(35), Millis(10), 3);
  ExpectRange(log_[2], 3, Millis(65), Millis(10), 4);
  EXPECT_EQ(ctx_.RetiredUnits(kDefaultStream), 10u);
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
}

TEST_F(CudaContextRangeTest, CountersCoverTheWholeChunkBeforeItsCallback) {
  Gate();
  Launch(1, 2);
  Launch(2, 3);
  Launch(3, 4);
  ASSERT_EQ(ctx_.Synchronize([&] { synced_ = true; }), CudaResult::kSuccess);
  sim_.Run();
  ASSERT_EQ(log_.size(), 3u);
  // Gate + 2, + 3, + 4 retired; 7, 4, 0 still pending.
  EXPECT_EQ(log_[0].retired, 3u);
  EXPECT_EQ(log_[0].pending, 7u);
  EXPECT_EQ(log_[1].retired, 6u);
  EXPECT_EQ(log_[1].pending, 4u);
  EXPECT_EQ(log_[2].retired, 10u);
  EXPECT_EQ(log_[2].pending, 0u);
  // Synchronize fires only after the last chunk, not when the first chunk
  // of the range arrives.
  for (const Delivery& d : log_) EXPECT_FALSE(d.synced) << "tag " << d.tag;
  EXPECT_TRUE(synced_);
}

TEST_F(CudaContextRangeTest, CallbackLaunchingAtChunkBoundaryRunsAfterBatch) {
  Gate();
  ASSERT_EQ(ctx_.LaunchKernelStream(step_, 2, kDefaultStream,
                                    [&](gpu::UnitRange r) {
                                      log_.push_back({1, r});
                                      Launch(4, 2);
                                    }),
            CudaResult::kSuccess);
  Launch(2, 3);
  sim_.Run();
  ASSERT_EQ(log_.size(), 3u);
  ExpectRange(log_[0], 1, Millis(15), Millis(10), 2);
  ExpectRange(log_[1], 2, Millis(35), Millis(10), 3);
  // The re-launch queued behind the in-flight batch and ran fused after it.
  ExpectRange(log_[2], 4, Millis(65), Millis(10), 2);
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
}

TEST_F(CudaContextRangeTest, CancelMidGroupDeliversDuePrefixFirst) {
  Gate();
  Launch(1, 2);
  Launch(2, 3);
  Launch(3, 4);
  std::size_t cancelled = 0;
  std::size_t delivered_in_cancel = 0;
  // At 40 ms three units are due (15, 25, 35 ms) and the fourth is in flight.
  sim_.ScheduleAt(Millis(40), [&] {
    cancelled = ctx_.CancelPending(kDefaultStream);
    delivered_in_cancel = log_.size();
  });
  sim_.Run();
  EXPECT_EQ(cancelled, 5u);
  EXPECT_EQ(delivered_in_cancel, 2u);
  ASSERT_EQ(log_.size(), 3u);
  // The due prefix arrived as one range, split at the launch boundary.
  ExpectRange(log_[0], 1, Millis(15), Millis(10), 2);
  ExpectRange(log_[1], 2, Millis(35), Millis(10), 1);
  // The in-flight unit retired on its own as a range of one.
  ExpectRange(log_[2], 2, Millis(45), Duration{0}, 1);
  EXPECT_EQ(ctx_.RetiredUnits(kDefaultStream), 5u);
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
}

TEST_F(CudaContextRangeTest, SyncWaiterAddedMidRangeMayDestroyTheStream) {
  StreamId s = 0;
  ASSERT_EQ(ctx_.StreamCreate(&s), CudaResult::kSuccess);
  Gate(s);
  CudaResult destroyed = CudaResult::kErrorNotReady;
  ASSERT_EQ(ctx_.LaunchKernelStream(
                step_, 2, s,
                [&](gpu::UnitRange r) {
                  log_.push_back({1, r});
                  ctx_.Synchronize([&] { destroyed = ctx_.StreamDestroy(s); });
                }),
            CudaResult::kSuccess);
  Launch(2, 3, s);
  sim_.Run();
  ASSERT_EQ(log_.size(), 2u);
  ExpectRange(log_[0], 1, Millis(15), Millis(10), 2);
  ExpectRange(log_[1], 2, Millis(35), Millis(10), 3);
  // The waiter ran once the range's last chunk was in, and the stream it
  // destroyed was not touched again.
  EXPECT_EQ(destroyed, CudaResult::kSuccess);
  EXPECT_EQ(ctx_.LaunchKernel(step_, s, nullptr),
            CudaResult::kErrorInvalidHandle);
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
}

TEST_F(CudaContextRangeTest, LastChunkCallbackMayDestroyTheStream) {
  StreamId s = 0;
  ASSERT_EQ(ctx_.StreamCreate(&s), CudaResult::kSuccess);
  Gate(s);
  Launch(1, 2, s);
  CudaResult destroyed = CudaResult::kErrorNotReady;
  ASSERT_EQ(ctx_.LaunchKernelStream(step_, 3, s,
                                    [&](gpu::UnitRange r) {
                                      log_.push_back({2, r});
                                      destroyed = ctx_.StreamDestroy(s);
                                    }),
            CudaResult::kSuccess);
  sim_.Run();
  ASSERT_EQ(log_.size(), 2u);
  ExpectRange(log_[1], 2, Millis(35), Millis(10), 3);
  EXPECT_EQ(destroyed, CudaResult::kSuccess);
  EXPECT_EQ(ctx_.PendingKernels(), 0u);
}

}  // namespace
}  // namespace ks::cuda
