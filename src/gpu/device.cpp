#include "gpu/device.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ks::gpu {

GpuDevice::GpuDevice(sim::Simulation* sim, GpuUuid uuid, GpuSpec spec)
    : sim_(sim), uuid_(std::move(uuid)), spec_(spec) {
  assert(sim_ != nullptr);
}

Expected<DevicePtr> GpuDevice::Allocate(const ContainerId& owner,
                                        std::uint64_t bytes) {
  if (bytes == 0) return InvalidArgumentError("zero-byte allocation");
  if (used_memory_ + bytes > spec_.memory_bytes) {
    return ResourceExhaustedError("device out of memory on " + uuid_.value());
  }
  const auto sa = slice_assign_.find(owner);
  if (sa != slice_assign_.end()) {
    // The slice's proportional share of device memory is a hard wall, like
    // a MIG instance's dedicated framebuffer.
    const auto wall = static_cast<std::uint64_t>(
        static_cast<double>(spec_.memory_bytes) *
        static_cast<double>(sa->second.groups) /
        static_cast<double>(sa->second.total));
    if (MemoryUsedBy(owner) + bytes > wall) {
      return ResourceExhaustedError("slice memory wall exceeded on " +
                                    uuid_.value());
    }
  }
  const auto quota = memory_quotas_.find(owner);
  if (quota != memory_quotas_.end() &&
      MemoryUsedBy(owner) + bytes > quota->second) {
    ++memory_quota_rejections_;
    if (violation_) violation_(owner, DeviceViolation::kMemoryQuota);
    return ResourceExhaustedError("memory quota exceeded on " +
                                  uuid_.value());
  }
  used_memory_ += bytes;
  const DevicePtr ptr = next_ptr_++;
  allocations_.emplace(ptr, Allocation{owner, bytes});
  return ptr;
}

Status GpuDevice::Free(DevicePtr ptr) {
  auto it = allocations_.find(ptr);
  if (it == allocations_.end()) {
    return NotFoundError("unknown device pointer");
  }
  used_memory_ -= it->second.bytes;
  allocations_.erase(it);
  return Status::Ok();
}

void GpuDevice::FreeAll(const ContainerId& owner) {
  for (auto it = allocations_.begin(); it != allocations_.end();) {
    if (it->second.owner == owner) {
      used_memory_ -= it->second.bytes;
      it = allocations_.erase(it);
    } else {
      ++it;
    }
  }
}

std::uint64_t GpuDevice::MemoryUsedBy(const ContainerId& owner) const {
  std::uint64_t total = 0;
  for (const auto& [ptr, alloc] : allocations_) {
    if (alloc.owner == owner) total += alloc.bytes;
  }
  return total;
}

void GpuDevice::EnforceTokenGate(const ContainerId& owner) {
  token_gates_.emplace(owner, TokenGate{});  // keeps an existing gate's state
}

void GpuDevice::LiftTokenGate(const ContainerId& owner) {
  token_gates_.erase(owner);
}

void GpuDevice::AdmitTokenEpoch(const ContainerId& owner,
                                std::uint64_t epoch) {
  const auto it = token_gates_.find(owner);
  if (it == token_gates_.end()) return;
  it->second.epoch = std::max(it->second.epoch, epoch);
}

void GpuDevice::FenceTokenEpoch(const ContainerId& owner) {
  const auto it = token_gates_.find(owner);
  if (it == token_gates_.end()) return;
  it->second.floor = std::max(it->second.floor, it->second.epoch + 1);
}

bool GpuDevice::TokenGateAdmits(const ContainerId& owner) const {
  const auto it = token_gates_.find(owner);
  if (it == token_gates_.end()) return true;  // ungated owners unaffected
  return it->second.epoch >= it->second.floor;
}

std::uint64_t GpuDevice::FencedRejectionsOf(const ContainerId& owner) const {
  const auto it = token_gates_.find(owner);
  return it == token_gates_.end() ? 0 : it->second.rejections;
}

bool GpuDevice::RejectFencedSubmit(const ContainerId& owner) {
  const auto it = token_gates_.find(owner);
  if (it == token_gates_.end()) return false;
  if (it->second.epoch >= it->second.floor) return false;
  ++it->second.rejections;
  ++fenced_rejections_;
  if (violation_) violation_(owner, DeviceViolation::kFencedSubmit);
  return true;
}

void GpuDevice::SetMemoryQuota(const ContainerId& owner,
                               std::uint64_t bytes) {
  memory_quotas_[owner] = bytes;
}

void GpuDevice::ClearMemoryQuota(const ContainerId& owner) {
  memory_quotas_.erase(owner);
}

Duration GpuDevice::ExclusiveWallTime(const KernelDesc& desc) const {
  const double stretch = std::max(
      1.0, desc.bandwidth_demand / std::max(1e-9, spec_.bandwidth_capacity));
  const double rate = 1.0 / stretch;
  const auto nominal = std::max(Duration{1}, desc.nominal_duration);
  return Duration{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(nominal.count()) / rate))};
}

void GpuDevice::SetSliceAssignment(const ContainerId& owner, int groups,
                                   int total) {
  if (total < 1) total = 1;
  if (groups < 1) groups = 1;
  if (groups > total) groups = total;
  slice_assign_[owner] = SliceAssign{groups, total};
}

void GpuDevice::ClearSliceAssignment(const ContainerId& owner) {
  slice_assign_.erase(owner);
}

bool GpuDevice::HasSliceAssignment(const ContainerId& owner) const {
  return slice_assign_.count(owner) > 0;
}

Duration GpuDevice::SlicedWallTime(const ContainerId& owner,
                                   const KernelDesc& desc) const {
  double fraction = 1.0;
  const auto it = slice_assign_.find(owner);
  if (it != slice_assign_.end()) {
    fraction = static_cast<double>(it->second.groups) /
               static_cast<double>(it->second.total);
  }
  // An isolated partition: the only stretch is the kernel demanding more
  // SMs than the slice has. Bandwidth contention does not apply.
  const double stretch = std::max(1.0, desc.sm_demand / std::max(1e-9, fraction));
  const auto nominal = std::max(Duration{1}, desc.nominal_duration);
  return Duration{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(nominal.count()) * stretch))};
}

Duration GpuDevice::ExclusiveWallTimeFor(const ContainerId& owner,
                                         const KernelDesc& desc) const {
  if (HasSliceAssignment(owner)) return SlicedWallTime(owner, desc);
  return ExclusiveWallTime(desc);
}

bool GpuDevice::EngineBusy() const {
  return !running_.empty() || group_.has_value();
}

KernelId GpuDevice::SubmitSliced(const ContainerId& owner,
                                 const KernelDesc& desc, UnitDoneFn on_done,
                                 RepeatId chain) {
  const KernelId id = next_kernel_++;
  const Time start = sim_->Now();
  const Duration wall = SlicedWallTime(owner, desc);
  const std::uint64_t seq = next_slice_seq_++;
  SlicedRunning r;
  r.id = id;
  r.owner = owner;
  r.name = desc.name;
  r.start = start;
  r.finish = start + wall;
  r.on_done = std::move(on_done);
  r.chain = chain;
  r.event = sim_->ScheduleAfter(wall, [this, seq] { OnSlicedComplete(seq); });
  sliced_.emplace(seq, std::move(r));
  util_.Start(start);
  return id;
}

void GpuDevice::OnSlicedComplete(std::uint64_t seq) {
  auto it = sliced_.find(seq);
  if (it == sliced_.end()) return;
  SlicedRunning r = std::move(it->second);
  sliced_.erase(it);
  ++completed_;
  if (r.chain != 0) {
    auto chain = sliced_chains_.find(r.chain);
    if (chain != sliced_chains_.end()) {
      ++chain->second.finished;
      chain->second.in_flight = false;
    }
  }
  RecordTrace(r.id, r.owner, r.name, r.start, r.finish);
  if (sliced_.empty() && !EngineBusy() && !MigrationBusy()) {
    util_.Stop(r.finish);
  }
  if (r.on_done) r.on_done(UnitRange::One(r.finish));
  if (r.chain != 0) AdvanceSlicedChain(r.chain);
}

RepeatId GpuDevice::SubmitRepeatSliced(const ContainerId& owner,
                                       const KernelDesc& desc, int count,
                                       UnitDoneFn on_unit) {
  if (count <= 0) return 0;
  const RepeatId rid = next_sliced_repeat_++;
  ChainTail tail;
  tail.owner = owner;
  tail.desc = desc;
  tail.remaining = count - 1;
  tail.on_unit = std::move(on_unit);
  tail.in_flight = true;
  sliced_chains_.emplace(rid, std::move(tail));
  StartSlicedChainUnit(rid);
  return rid;
}

void GpuDevice::StartSlicedChainUnit(RepeatId id) {
  ChainTail& tail = sliced_chains_.at(id);
  SubmitSliced(tail.owner, tail.desc, tail.on_unit, id);
}

void GpuDevice::AdvanceSlicedChain(RepeatId id) {
  auto it = sliced_chains_.find(id);
  if (it == sliced_chains_.end()) return;
  ChainTail& tail = it->second;
  if (tail.remaining <= 0) {
    sliced_chains_.erase(it);
    return;
  }
  --tail.remaining;
  tail.in_flight = true;
  StartSlicedChainUnit(id);
}

std::size_t GpuDevice::CancelSlicedTail(RepeatId id) {
  auto it = sliced_chains_.find(id);
  if (it == sliced_chains_.end()) return 0;
  const auto cancelled =
      static_cast<std::size_t>(std::max(0, it->second.remaining));
  it->second.remaining = 0;
  if (!it->second.in_flight) sliced_chains_.erase(it);
  return cancelled;
}

std::size_t GpuDevice::SlicedUnitsFinished(RepeatId id) const {
  auto it = sliced_chains_.find(id);
  return it == sliced_chains_.end() ? 0 : it->second.finished;
}

void GpuDevice::DetachSlicedOwner(const ContainerId& owner) {
  for (auto& [seq, r] : sliced_) {
    if (r.owner == owner) r.on_done = nullptr;
  }
  for (auto it = sliced_chains_.begin(); it != sliced_chains_.end();) {
    if (it->second.owner == owner) {
      it->second.remaining = 0;
      it->second.on_unit = nullptr;
      if (!it->second.in_flight) {
        it = sliced_chains_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

void GpuDevice::ChargeMigration(const ContainerId& owner, std::uint64_t bytes,
                                Duration duration, UnitDoneFn on_done) {
  ++migrations_charged_;
  migration_bytes_total_ += bytes;
  const std::uint64_t seq = next_migration_seq_++;
  Migration m;
  m.owner = owner;
  m.on_done = std::move(on_done);
  util_.Start(sim_->Now());
  m.event = sim_->ScheduleAfter(std::max(Duration{0}, duration),
                                [this, seq] { OnMigrationComplete(seq); });
  migrations_.emplace(seq, std::move(m));
}

void GpuDevice::OnMigrationComplete(std::uint64_t seq) {
  auto it = migrations_.find(seq);
  if (it == migrations_.end()) return;
  Migration m = std::move(it->second);
  migrations_.erase(it);
  const Time now = sim_->Now();
  if (migrations_.empty() && !EngineBusy() && !SlicedBusy()) util_.Stop(now);
  if (m.on_done) m.on_done(UnitRange::One(now));
}

void GpuDevice::DetachMigrations(const ContainerId& owner) {
  for (auto& [seq, m] : migrations_) {
    if (m.owner == owner) m.on_done = nullptr;
  }
}

void GpuDevice::RecomputeRate() {
  if (running_.empty()) {
    rate_ = 0.0;
    return;
  }
  // Sum in insertion order: the reference engine iterates its running
  // vector the same way, and double addition is order-sensitive, so this
  // keeps the two engines bit-identical.
  double bw = 0.0;
  for (const auto& [seq, r] : running_) bw += r.bandwidth_demand;
  const double stretch =
      std::max(1.0, bw / std::max(1e-9, spec_.bandwidth_capacity));
  rate_ = 1.0 / (static_cast<double>(running_.size()) * stretch);
}

void GpuDevice::Progress() {
  const Time now = sim_->Now();
  if (running_.empty() || now <= last_update_) {
    last_update_ = now;
    return;
  }
  // The reference engine burns every kernel by the same amount, so pairwise
  // differences are invariant and one accumulator carries the whole set.
  const auto elapsed = static_cast<double>((now - last_update_).count());
  vnow_ += static_cast<std::int64_t>(elapsed * rate_);
  last_update_ = now;
}

void GpuDevice::Reschedule() {
  if (completion_event_ != sim::kInvalidEvent) {
    sim_->Cancel(completion_event_);
    completion_event_ = sim::kInvalidEvent;
  }
  if (running_.empty()) {
    if (!group_ && !SlicedBusy() && !MigrationBusy()) util_.Stop(sim_->Now());
    return;
  }
  util_.Start(sim_->Now());
  const std::int64_t min_remaining = by_end_.begin()->first - vnow_;
  const auto wall = Duration{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(min_remaining) / rate_))};
  completion_event_ =
      sim_->ScheduleAfter(std::max(Duration{0}, wall), [this] {
        OnCompletionEvent();
      });
}

void GpuDevice::InsertRunning(Running r) {
  const std::uint64_t seq = next_seq_++;
  by_end_.insert({r.end_v, seq});
  running_.emplace(seq, std::move(r));
}

KernelId GpuDevice::Submit(const ContainerId& owner, const KernelDesc& desc,
                           std::function<void()> on_complete) {
  if (RejectFencedSubmit(owner)) return 0;
  if (HasSliceAssignment(owner)) {
    UnitDoneFn done;
    if (on_complete) {
      done = [fn = std::move(on_complete)](UnitRange) { fn(); };
    }
    return SubmitSliced(owner, desc, std::move(done), /*chain=*/0);
  }
  if (group_) SplitGroup(/*fire_callbacks=*/true);
  Progress();
  const KernelId id = next_kernel_++;
  Running r;
  r.id = id;
  r.owner = owner;
  r.bandwidth_demand = desc.bandwidth_demand;
  r.end_v = vnow_ + std::max(Duration{1}, desc.nominal_duration).count();
  r.name = desc.name;
  r.start = sim_->Now();
  if (on_complete) {
    r.on_done = [fn = std::move(on_complete)](UnitRange) { fn(); };
  }
  InsertRunning(std::move(r));
  RecomputeRate();
  Reschedule();
  return id;
}

RepeatId GpuDevice::SubmitRepeat(const ContainerId& owner,
                                 const KernelDesc& desc, int count,
                                 UnitDoneFn on_unit) {
  if (count <= 0) return 0;
  if (RejectFencedSubmit(owner)) return 0;
  if (HasSliceAssignment(owner)) {
    return SubmitRepeatSliced(owner, desc, count, std::move(on_unit));
  }
  if (group_) SplitGroup(/*fire_callbacks=*/true);
  const RepeatId rid = next_repeat_++;
  if (running_.empty() && count >= 2) {
    // The stream has the device to itself: unit boundaries are analytic
    // (anchor + i * unit_wall) and the whole run rides one engine event.
    Progress();
    FusedGroup g;
    g.id = rid;
    g.owner = owner;
    g.desc = desc;
    g.total = count;
    g.unit_wall = ExclusiveWallTime(desc);
    g.anchor = sim_->Now();
    g.on_unit = std::move(on_unit);
    const Duration total_wall{g.unit_wall.count() *
                              static_cast<std::int64_t>(count)};
    group_ = std::move(g);
    util_.Start(sim_->Now());
    group_->event = sim_->ScheduleAfter(total_wall, [this] { OnGroupEvent(); });
    return rid;
  }
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

void GpuDevice::StartChainUnit(RepeatId id) {
  ChainTail& tail = chains_.at(id);
  Progress();
  Running r;
  r.id = next_kernel_++;
  r.owner = tail.owner;
  r.bandwidth_demand = tail.desc.bandwidth_demand;
  r.end_v =
      vnow_ + std::max(Duration{1}, tail.desc.nominal_duration).count();
  r.name = tail.desc.name;
  r.start = sim_->Now();
  r.on_done = tail.on_unit;
  r.chain = id;
  InsertRunning(std::move(r));
  RecomputeRate();
  Reschedule();
}

void GpuDevice::AdvanceChain(RepeatId id) {
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

int GpuDevice::DueUnits(const FusedGroup& g, Time now) {
  const std::int64_t due = (now - g.anchor).count() / g.unit_wall.count();
  return static_cast<int>(
      std::clamp<std::int64_t>(due, 0, static_cast<std::int64_t>(g.total)));
}

UnitRange GpuDevice::RetireUnits(const FusedGroup& g, int count) {
  const KernelId first_id = next_kernel_;
  next_kernel_ += static_cast<KernelId>(count);
  completed_ += static_cast<std::uint64_t>(count);
  if (trace_) {
    for (int i = 0; i < count; ++i) {
      const Time start = g.anchor + Duration{static_cast<std::int64_t>(i) *
                                             g.unit_wall.count()};
      RecordTrace(first_id + static_cast<KernelId>(i), g.owner, g.desc.name,
                  start, start + g.unit_wall);
    }
  }
  return UnitRange{g.anchor + g.unit_wall, g.unit_wall, count};
}

void GpuDevice::SplitGroup(bool fire_callbacks) {
  FusedGroup g = std::move(*group_);
  group_.reset();
  if (g.event != sim::kInvalidEvent) sim_->Cancel(g.event);
  const Time now = sim_->Now();
  const int due = DueUnits(g, now);

  // Materialize finished units first (ids in start order, matching the
  // oracle's allocation at each unit's start time), then convert the
  // in-flight unit, then deliver the due range — a callback may re-enter
  // (Submit / SubmitRepeat), so the engine state must be settled first.
  const UnitRange done = RetireUnits(g, due);

  if (due < g.total) {
    Progress();
    const Time start = g.anchor + Duration{due * g.unit_wall.count()};
    // Burn exactly what the oracle's Progress() would have: the unit ran
    // alone since `start` at its exclusive rate.
    const double stretch =
        std::max(1.0, g.desc.bandwidth_demand /
                          std::max(1e-9, spec_.bandwidth_capacity));
    const double rate_alone = 1.0 / stretch;
    const auto nominal = std::max(Duration{1}, g.desc.nominal_duration);
    const auto burn = Duration{static_cast<std::int64_t>(
        static_cast<double>((now - start).count()) * rate_alone)};
    const Duration remaining =
        (nominal > burn) ? nominal - burn : Duration{0};
    Running r;
    r.id = next_kernel_++;
    r.owner = g.owner;
    r.bandwidth_demand = g.desc.bandwidth_demand;
    r.end_v = vnow_ + remaining.count();
    r.name = g.desc.name;
    r.start = start;
    r.on_done = fire_callbacks ? g.on_unit : nullptr;
    r.chain = g.id;
    InsertRunning(std::move(r));
    ChainTail tail;
    tail.owner = g.owner;
    tail.desc = g.desc;
    tail.remaining = fire_callbacks ? g.total - due - 1 : 0;
    tail.finished = static_cast<std::size_t>(due);
    tail.on_unit = fire_callbacks ? g.on_unit : nullptr;
    tail.in_flight = true;
    chains_.emplace(g.id, std::move(tail));
    RecomputeRate();
    Reschedule();
  }

  if (fire_callbacks && g.on_unit && due > 0) g.on_unit(done);
}

void GpuDevice::OnGroupEvent() {
  FusedGroup g = std::move(*group_);
  group_.reset();
  const UnitRange done = RetireUnits(g, g.total);
  Progress();
  Reschedule();  // running set empty, no group -> closes the busy interval
  if (g.on_unit) g.on_unit(done);
}

std::size_t GpuDevice::CancelRepeatTail(RepeatId id) {
  if (IsSlicedRepeat(id)) return CancelSlicedTail(id);
  if (group_ && group_->id == id) {
    // Deliver due units and demote the in-flight one; the unstarted tail
    // becomes the chain remainder cancelled below.
    SplitGroup(/*fire_callbacks=*/true);
  }
  auto it = chains_.find(id);
  if (it == chains_.end()) return 0;
  const auto cancelled =
      static_cast<std::size_t>(std::max(0, it->second.remaining));
  it->second.remaining = 0;
  if (!it->second.in_flight) chains_.erase(it);
  return cancelled;
}

std::size_t GpuDevice::RepeatUnitsFinished(RepeatId id) const {
  if (IsSlicedRepeat(id)) return SlicedUnitsFinished(id);
  if (group_ && group_->id == id) {
    return static_cast<std::size_t>(DueUnits(*group_, sim_->Now()));
  }
  auto it = chains_.find(id);
  return it == chains_.end() ? 0 : it->second.finished;
}

void GpuDevice::DetachOwner(const ContainerId& owner) {
  DetachSlicedOwner(owner);
  DetachMigrations(owner);
  if (group_ && group_->owner == owner) {
    SplitGroup(/*fire_callbacks=*/false);
  }
  for (auto& [seq, r] : running_) {
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

std::size_t GpuDevice::active_kernels() const {
  return running_.size() + (group_ ? 1u : 0u) + sliced_.size();
}

std::uint64_t GpuDevice::completed_kernels() const {
  std::uint64_t total = completed_;
  if (group_) {
    total += static_cast<std::uint64_t>(DueUnits(*group_, sim_->Now()));
  }
  return total;
}

void GpuDevice::OnCompletionEvent() {
  completion_event_ = sim::kInvalidEvent;
  Progress();
  const Time now = sim_->Now();
  // Collect every kernel that has (numerically) finished, in submission
  // order like the reference engine's vector scan. Completion callbacks
  // run after the running set is updated so re-entrant Submit() calls
  // from a callback see a consistent device state.
  std::vector<std::uint64_t> seqs;
  for (auto it = by_end_.begin(); it != by_end_.end();) {
    // 1 us tolerance absorbs the floor/ceil rounding between Progress()
    // and the completion-event timing; without it a kernel could hover at
    // remaining == 1 and re-fire the event indefinitely.
    if (it->first - vnow_ > 1) break;
    seqs.push_back(it->second);
    it = by_end_.erase(it);
  }
  std::sort(seqs.begin(), seqs.end());
  struct Done {
    UnitDoneFn fn;
    RepeatId chain;
  };
  std::vector<Done> done;
  done.reserve(seqs.size());
  for (const std::uint64_t seq : seqs) {
    auto it = running_.find(seq);
    Running& r = it->second;
    ++completed_;
    if (r.chain != 0) {
      auto chain = chains_.find(r.chain);
      if (chain != chains_.end()) {
        ++chain->second.finished;
        chain->second.in_flight = false;
      }
    }
    RecordTrace(r.id, r.owner, r.name, r.start, now);
    done.push_back(Done{std::move(r.on_done), r.chain});
    running_.erase(it);
  }
  RecomputeRate();
  Reschedule();
  for (auto& d : done) {
    if (d.fn) d.fn(UnitRange::One(now));
    if (d.chain != 0) AdvanceChain(d.chain);
  }
}

}  // namespace ks::gpu
