#include "oracles/device_reference.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ks::gpu {

GpuDeviceReference::GpuDeviceReference(sim::Simulation* sim, GpuUuid uuid,
                                       GpuSpec spec)
    : GpuDevice(sim, std::move(uuid), spec) {}

double GpuDeviceReference::CurrentRatePerKernel() const {
  if (running_.empty()) return 0.0;
  double bw = 0.0;
  for (const Running& r : running_) bw += r.bandwidth_demand;
  const double stretch =
      std::max(1.0, bw / std::max(1e-9, spec_.bandwidth_capacity));
  return 1.0 / (static_cast<double>(running_.size()) * stretch);
}

void GpuDeviceReference::Progress() {
  const Time now = sim_->Now();
  if (running_.empty() || now <= last_update_) {
    last_update_ = now;
    return;
  }
  const double rate = CurrentRatePerKernel();
  const auto elapsed = static_cast<double>((now - last_update_).count());
  const auto burn = Duration{static_cast<std::int64_t>(elapsed * rate)};
  for (Running& r : running_) {
    r.remaining = (r.remaining > burn) ? r.remaining - burn : Duration{0};
  }
  last_update_ = now;
}

void GpuDeviceReference::Reschedule() {
  if (completion_event_ != sim::kInvalidEvent) {
    sim_->Cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  if (running_.empty()) {
    if (!SlicedBusy() && !MigrationBusy()) util_.Stop(sim_->Now());
    return;
  }
  util_.Start(sim_->Now());
  const double rate = CurrentRatePerKernel();
  Duration min_remaining = running_.front().remaining;
  for (const Running& r : running_) {
    min_remaining = std::min(min_remaining, r.remaining);
  }
  const auto wall = Duration{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(min_remaining.count()) / rate))};
  completion_event_ =
      sim_->ScheduleAfter(std::max(Duration{0}, wall), [this] {
        OnCompletionEvent();
      });
}

KernelId GpuDeviceReference::Submit(const ContainerId& owner,
                                    const KernelDesc& desc,
                                    std::function<void()> on_complete) {
  if (RejectFencedSubmit(owner)) return 0;
  if (HasSliceAssignment(owner)) {
    // The slice lane lives in the base class and is shared verbatim by
    // both engines, keeping differential traces byte-equal.
    return GpuDevice::Submit(owner, desc, std::move(on_complete));
  }
  Progress();
  const KernelId id = next_kernel_++;
  Running r;
  r.id = id;
  r.owner = owner;
  r.bandwidth_demand = desc.bandwidth_demand;
  r.remaining = std::max(Duration{1}, desc.nominal_duration);
  r.name = desc.name;
  r.start = sim_->Now();
  if (on_complete) {
    r.on_done = [fn = std::move(on_complete)](UnitRange) { fn(); };
  }
  running_.push_back(std::move(r));
  Reschedule();
  return id;
}

RepeatId GpuDeviceReference::SubmitRepeat(const ContainerId& owner,
                                          const KernelDesc& desc, int count,
                                          UnitDoneFn on_unit) {
  if (count <= 0) return 0;
  if (RejectFencedSubmit(owner)) return 0;
  if (HasSliceAssignment(owner)) {
    return GpuDevice::SubmitRepeat(owner, desc, count, std::move(on_unit));
  }
  const RepeatId rid = next_repeat_++;
  ChainTail tail;
  tail.owner = owner;
  tail.desc = desc;
  tail.remaining = count - 1;
  tail.on_unit = std::move(on_unit);
  tail.in_flight = true;
  chains_.emplace(rid, std::move(tail));
  StartChainUnit(rid);
  return rid;
}

void GpuDeviceReference::StartChainUnit(RepeatId id) {
  ChainTail& tail = chains_.at(id);
  Progress();
  Running r;
  r.id = next_kernel_++;
  r.owner = tail.owner;
  r.bandwidth_demand = tail.desc.bandwidth_demand;
  r.remaining = std::max(Duration{1}, tail.desc.nominal_duration);
  r.name = tail.desc.name;
  r.start = sim_->Now();
  r.on_done = tail.on_unit;
  r.chain = id;
  running_.push_back(std::move(r));
  Reschedule();
}

void GpuDeviceReference::AdvanceChain(RepeatId id) {
  auto it = chains_.find(id);
  if (it == chains_.end()) return;
  ChainTail& tail = it->second;
  if (tail.remaining <= 0) {
    chains_.erase(it);
    return;
  }
  --tail.remaining;
  tail.in_flight = true;
  StartChainUnit(id);
}

std::size_t GpuDeviceReference::CancelRepeatTail(RepeatId id) {
  if (IsSlicedRepeat(id)) return CancelSlicedTail(id);
  auto it = chains_.find(id);
  if (it == chains_.end()) return 0;
  const auto cancelled =
      static_cast<std::size_t>(std::max(0, it->second.remaining));
  it->second.remaining = 0;
  if (!it->second.in_flight) chains_.erase(it);
  return cancelled;
}

std::size_t GpuDeviceReference::RepeatUnitsFinished(RepeatId id) const {
  if (IsSlicedRepeat(id)) return SlicedUnitsFinished(id);
  auto it = chains_.find(id);
  return it == chains_.end() ? 0 : it->second.finished;
}

void GpuDeviceReference::DetachOwner(const ContainerId& owner) {
  DetachSlicedOwner(owner);
  DetachMigrations(owner);
  for (Running& r : running_) {
    if (r.owner == owner) r.on_done = nullptr;
  }
  for (auto it = chains_.begin(); it != chains_.end();) {
    if (it->second.owner == owner) {
      it->second.remaining = 0;
      it->second.on_unit = nullptr;
      if (!it->second.in_flight) {
        it = chains_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

std::size_t GpuDeviceReference::active_kernels() const {
  return running_.size() + sliced_active_kernels();
}

bool GpuDeviceReference::EngineBusy() const { return !running_.empty(); }

std::uint64_t GpuDeviceReference::completed_kernels() const {
  return completed_;
}

void GpuDeviceReference::OnCompletionEvent() {
  completion_event_ = sim::kInvalidEvent;
  Progress();
  const Time now = sim_->Now();
  // Collect every kernel that has (numerically) finished. Completion
  // callbacks run after the running set is updated so re-entrant Submit()
  // calls from a callback see a consistent device state.
  struct Done {
    UnitDoneFn fn;
    RepeatId chain;
  };
  std::vector<Done> done;
  for (auto it = running_.begin(); it != running_.end();) {
    // 1 us tolerance absorbs the floor/ceil rounding between Progress()
    // and the completion-event timing; without it a kernel could hover at
    // remaining == 1 and re-fire the event indefinitely.
    if (it->remaining <= Duration{1}) {
      ++completed_;
      if (it->chain != 0) {
        auto chain = chains_.find(it->chain);
        if (chain != chains_.end()) {
          ++chain->second.finished;
          chain->second.in_flight = false;
        }
      }
      RecordTrace(it->id, it->owner, it->name, it->start, now);
      done.push_back(Done{std::move(it->on_done), it->chain});
      it = running_.erase(it);
    } else {
      ++it;
    }
  }
  Reschedule();
  for (auto& d : done) {
    if (d.fn) d.fn(UnitRange::One(now));
    if (d.chain != 0) AdvanceChain(d.chain);
  }
}

}  // namespace ks::gpu
