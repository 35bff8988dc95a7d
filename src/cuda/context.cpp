#include "cuda/context.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace ks::cuda {

CudaContext::CudaContext(gpu::GpuDevice* device, ContainerId owner)
    : device_(device), owner_(std::move(owner)) {
  assert(device_ != nullptr);
  streams_.try_emplace(kDefaultStream);
}

CudaContext::~CudaContext() {
  // Context destruction releases every allocation this context owns, as
  // cuCtxDestroy does, and orphans in-flight kernels so their completion
  // events cannot call back into this (freed) context.
  device_->DetachOwner(owner_);
  device_->FreeAll(owner_);
}

CudaResult CudaContext::MemAlloc(gpu::DevicePtr* out, std::uint64_t bytes) {
  if (out == nullptr || bytes == 0) return CudaResult::kErrorInvalidValue;
  auto result = device_->Allocate(owner_, bytes);
  if (!result.ok()) return CudaResult::kErrorOutOfMemory;
  *out = *result;
  owned_ptrs_.insert(*result);
  allocated_bytes_ += bytes;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::MemFree(gpu::DevicePtr ptr) {
  auto it = owned_ptrs_.find(ptr);
  if (it == owned_ptrs_.end()) return CudaResult::kErrorInvalidValue;
  const std::uint64_t before = device_->MemoryUsedBy(owner_);
  if (!device_->Free(ptr).ok()) return CudaResult::kErrorInvalidValue;
  allocated_bytes_ -= before - device_->MemoryUsedBy(owner_);
  owned_ptrs_.erase(it);
  return CudaResult::kSuccess;
}

CudaResult CudaContext::ArrayCreate(gpu::DevicePtr* out, std::uint64_t width,
                                    std::uint64_t height,
                                    std::uint64_t element_bytes) {
  if (width == 0 || height == 0 || element_bytes == 0) {
    return CudaResult::kErrorInvalidValue;
  }
  return MemAlloc(out, width * height * element_bytes);
}

CudaResult CudaContext::MemPrefetch(std::uint64_t bytes, Duration duration,
                                    HostFn on_complete) {
  gpu::UnitDoneFn done;
  if (on_complete) {
    done = [fn = std::move(on_complete)](gpu::UnitRange) { fn(); };
  }
  device_->ChargeMigration(owner_, bytes, duration, std::move(done));
  return CudaResult::kSuccess;
}

CudaResult CudaContext::StreamCreate(StreamId* out) {
  if (out == nullptr) return CudaResult::kErrorInvalidValue;
  const StreamId id = next_stream_++;
  streams_.try_emplace(id);
  *out = id;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::StreamDestroy(StreamId stream) {
  if (stream == kDefaultStream) return CudaResult::kErrorInvalidValue;
  auto it = streams_.find(stream);
  if (it == streams_.end()) return CudaResult::kErrorInvalidHandle;
  if (it->second.in_flight || !it->second.queue.empty()) {
    return CudaResult::kErrorNotReady;
  }
  streams_.erase(it);
  return CudaResult::kSuccess;
}

CudaResult CudaContext::LaunchKernel(const gpu::KernelDesc& desc,
                                     StreamId stream, HostFn on_complete) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return CudaResult::kErrorInvalidHandle;
  if (desc.nominal_duration.count() <= 0) {
    return CudaResult::kErrorInvalidValue;
  }
  ++pending_kernels_;
  Entry entry;
  entry.desc = desc;
  entry.fn = std::move(on_complete);
  it->second.queue.push_back(std::move(entry));
  if (!it->second.in_flight) SubmitNext(stream);
  return CudaResult::kSuccess;
}

namespace {
bool SameKernel(const gpu::KernelDesc& a, const gpu::KernelDesc& b) {
  return a.nominal_duration == b.nominal_duration &&
         a.bandwidth_demand == b.bandwidth_demand && a.name == b.name;
}
}  // namespace

void CudaContext::SubmitNext(StreamId stream_id) {
  // Loops so a run of device-rejected (token-fenced) submits drains the
  // queue iteratively instead of recursing per dropped entry.
  for (;;) {
    const auto stream_it = streams_.find(stream_id);
    if (stream_it == streams_.end()) return;  // destroyed by a sync waiter
    Stream& stream = stream_it->second;
    // Event markers at the head of the queue complete immediately — every
    // earlier kernel on this FIFO stream has retired.
    while (!stream.in_flight && !stream.queue.empty() &&
           stream.queue.front().is_event) {
      const EventId event = stream.queue.front().event;
      stream.queue.pop_front();
      CompleteEvent(event);
    }
    if (stream.in_flight || stream.queue.empty()) return;
    if (stream.queue.front().is_repeat) {
      // Coalesce the head run of identical-desc repeat entries into one
      // device-level repeat batch; `segs` remembers each entry's callback.
      const gpu::KernelDesc desc = stream.queue.front().desc;
      int total = 0;
      stream.segs.clear();
      stream.seg_idx = 0;
      stream.seg_fired = 0;
      while (!stream.queue.empty() && stream.queue.front().is_repeat &&
             SameKernel(stream.queue.front().desc, desc)) {
        Entry entry = std::move(stream.queue.front());
        stream.queue.pop_front();
        total += entry.count;
        stream.segs.emplace_back(entry.count, std::move(entry.unit_fn));
      }
      stream.in_flight = true;
      stream.batch_size = static_cast<std::size_t>(total);
      stream.batch_delivered = 0;
      stream.batch = device_->SubmitRepeat(
          owner_, desc, total,
          [this, stream_id](gpu::UnitRange units) {
            OnUnitRetired(stream_id, units);
          });
      if (stream.batch == 0) {
        // The device fenced the batch (expired/revoked token epoch): the
        // units are dropped without callbacks, and the stream keeps
        // draining so queued work behind the fence cannot wedge it.
        stream.in_flight = false;
        stream.batch_size = 0;
        stream.segs.clear();
        pending_kernels_ -= static_cast<std::size_t>(total);
        MaybeFireSync();
        continue;
      }
      return;
    }
    Entry entry = std::move(stream.queue.front());
    stream.queue.pop_front();
    stream.in_flight = true;
    const gpu::KernelId id = device_->Submit(
        owner_, entry.desc,
        [this, stream_id, user_fn = std::move(entry.fn)]() mutable {
          OnKernelRetired(stream_id, std::move(user_fn));
        });
    if (id == 0) {
      stream.in_flight = false;
      --pending_kernels_;
      MaybeFireSync();
      continue;
    }
    return;
  }
}

void CudaContext::OnKernelRetired(StreamId stream_id, HostFn user_fn) {
  auto it = streams_.find(stream_id);
  if (it != streams_.end()) {
    it->second.in_flight = false;
    ++it->second.retired_units;
  }
  --pending_kernels_;
  if (user_fn) user_fn();
  if (it != streams_.end()) SubmitNext(stream_id);
  MaybeFireSync();
}

void CudaContext::OnUnitRetired(StreamId stream_id, gpu::UnitRange units) {
  // Split the range only where it crosses into the next coalesced entry:
  // each chunk takes one stream lookup, one callback copy and one call. The
  // stream counters move by the whole chunk before its callback runs, and
  // the end-of-batch work runs once, after the chunk that closes the batch.
  int done = 0;
  while (done < units.count) {
    const int rest = units.count - done;
    auto it = streams_.find(stream_id);
    if (it == streams_.end()) {
      pending_kernels_ -= static_cast<std::size_t>(rest);
      break;
    }
    Stream& stream = it->second;
    // CancelPending may have shrunk batch_size below the segment total;
    // tail segments past the final delivered unit are simply never reached.
    while (stream.seg_idx < stream.segs.size() &&
           stream.seg_fired >= stream.segs[stream.seg_idx].first) {
      ++stream.seg_idx;
      stream.seg_fired = 0;
    }
    int take = rest;
    gpu::UnitDoneFn user_fn;
    if (stream.seg_idx < stream.segs.size()) {
      auto& seg = stream.segs[stream.seg_idx];
      take = std::min(rest, seg.first - stream.seg_fired);
      user_fn = seg.second;
      stream.seg_fired += take;
    }
    const auto n = static_cast<std::size_t>(take);
    stream.retired_units += n;
    stream.batch_delivered += n;
    pending_kernels_ -= n;
    const bool last = stream.batch_delivered >= stream.batch_size;
    if (last) {
      stream.in_flight = false;
      stream.batch = 0;
      stream.batch_size = 0;
      stream.batch_delivered = 0;
      stream.segs.clear();
      stream.seg_idx = 0;
      stream.seg_fired = 0;
    }
    if (user_fn) user_fn(units.Slice(done, take));
    done += take;
    if (last && streams_.count(stream_id) > 0) SubmitNext(stream_id);
  }
  MaybeFireSync();
}

CudaResult CudaContext::LaunchKernelStream(const gpu::KernelDesc& desc,
                                           int count, StreamId stream,
                                           gpu::UnitDoneFn on_unit) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return CudaResult::kErrorInvalidHandle;
  if (desc.nominal_duration.count() <= 0 || count <= 0) {
    return CudaResult::kErrorInvalidValue;
  }
  pending_kernels_ += static_cast<std::size_t>(count);
  Entry entry;
  entry.is_repeat = true;
  entry.count = count;
  entry.desc = desc;
  entry.unit_fn = std::move(on_unit);
  it->second.queue.push_back(std::move(entry));
  if (!it->second.in_flight) SubmitNext(stream);
  return CudaResult::kSuccess;
}

std::size_t CudaContext::CancelPending(StreamId stream) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return 0;
  Stream& s = it->second;
  std::size_t cancelled = 0;
  if (s.batch != 0) {
    // Due fused units deliver synchronously (through OnUnitRetired) before
    // the unstarted tail is cancelled; the in-flight unit still retires
    // later and closes the batch.
    const std::size_t tail = device_->CancelRepeatTail(s.batch);
    if (tail > 0) {
      cancelled += tail;
      pending_kernels_ -= tail;
      s.batch_size -= tail;
    }
  }
  for (auto qit = s.queue.begin(); qit != s.queue.end();) {
    if (qit->is_event) {
      ++qit;
      continue;
    }
    const auto units =
        static_cast<std::size_t>(qit->is_repeat ? qit->count : 1);
    pending_kernels_ -= units;
    cancelled += units;
    qit = s.queue.erase(qit);
  }
  // Event markers left at the head complete now that nothing precedes them.
  if (!s.in_flight) SubmitNext(stream);
  MaybeFireSync();
  return cancelled;
}

std::size_t CudaContext::RetiredUnits(StreamId stream) const {
  auto it = streams_.find(stream);
  if (it == streams_.end()) return 0;
  const Stream& s = it->second;
  std::size_t total = s.retired_units;
  if (s.batch != 0) {
    // Due-but-undelivered units of the in-flight fused batch count: the
    // analytic probe keeps mid-run progress exact across device modes.
    const std::size_t due = device_->RepeatUnitsFinished(s.batch);
    if (due > s.batch_delivered) total += due - s.batch_delivered;
  }
  return total;
}

Duration CudaContext::ExclusiveKernelTime(const gpu::KernelDesc& desc) const {
  // Owner-aware: a container pinned to a spatial slice sizes its token
  // batches with the slice-stretched unit wall time.
  return device_->ExclusiveWallTimeFor(owner_, desc);
}

Time CudaContext::Now() const { return device_->sim()->Now(); }

CudaResult CudaContext::Synchronize(HostFn fn) {
  if (!fn) return CudaResult::kErrorInvalidValue;
  if (pending_kernels_ == 0) {
    fn();
    return CudaResult::kSuccess;
  }
  sync_waiters_.push_back(std::move(fn));
  return CudaResult::kSuccess;
}

void CudaContext::MaybeFireSync() {
  if (pending_kernels_ != 0 || sync_waiters_.empty()) return;
  auto waiters = std::move(sync_waiters_);
  sync_waiters_.clear();
  for (auto& fn : waiters) fn();
}

CudaResult CudaContext::EventCreate(EventId* out) {
  if (out == nullptr) return CudaResult::kErrorInvalidValue;
  const EventId id = next_event_++;
  events_.try_emplace(id);
  *out = id;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::EventRecord(EventId event, StreamId stream) {
  auto eit = events_.find(event);
  if (eit == events_.end()) return CudaResult::kErrorInvalidHandle;
  auto sit = streams_.find(stream);
  if (sit == streams_.end()) return CudaResult::kErrorInvalidHandle;
  // Re-recording resets the event.
  eit->second.recorded = true;
  eit->second.complete = false;
  if (!sit->second.in_flight && sit->second.queue.empty()) {
    CompleteEvent(event);
    return CudaResult::kSuccess;
  }
  Entry marker;
  marker.is_event = true;
  marker.event = event;
  sit->second.queue.push_back(std::move(marker));
  return CudaResult::kSuccess;
}

void CudaContext::CompleteEvent(EventId event) {
  auto it = events_.find(event);
  if (it == events_.end()) return;  // destroyed while in a queue
  it->second.complete = true;
  it->second.completed_at = device_->sim()->Now();
  auto waiters = std::move(it->second.waiters);
  it->second.waiters.clear();
  for (auto& fn : waiters) {
    if (fn) fn();
  }
}

CudaResult CudaContext::EventQuery(EventId event) {
  auto it = events_.find(event);
  if (it == events_.end()) return CudaResult::kErrorInvalidHandle;
  if (!it->second.recorded) return CudaResult::kErrorInvalidValue;
  return it->second.complete ? CudaResult::kSuccess
                             : CudaResult::kErrorNotReady;
}

CudaResult CudaContext::EventSynchronize(EventId event, HostFn fn) {
  if (!fn) return CudaResult::kErrorInvalidValue;
  auto it = events_.find(event);
  if (it == events_.end()) return CudaResult::kErrorInvalidHandle;
  if (!it->second.recorded) return CudaResult::kErrorInvalidValue;
  if (it->second.complete) {
    fn();
  } else {
    it->second.waiters.push_back(std::move(fn));
  }
  return CudaResult::kSuccess;
}

CudaResult CudaContext::EventElapsedTime(Duration* out, EventId start,
                                         EventId end) {
  if (out == nullptr) return CudaResult::kErrorInvalidValue;
  auto sit = events_.find(start);
  auto eit = events_.find(end);
  if (sit == events_.end() || eit == events_.end()) {
    return CudaResult::kErrorInvalidHandle;
  }
  if (!sit->second.complete || !eit->second.complete) {
    return CudaResult::kErrorNotReady;
  }
  *out = eit->second.completed_at - sit->second.completed_at;
  return CudaResult::kSuccess;
}

CudaResult CudaContext::EventDestroy(EventId event) {
  if (events_.erase(event) == 0) return CudaResult::kErrorInvalidHandle;
  return CudaResult::kSuccess;
}

}  // namespace ks::cuda
