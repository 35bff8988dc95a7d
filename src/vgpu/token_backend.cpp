#include "vgpu/token_backend.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/log.hpp"
#include "gpu/device.hpp"

namespace ks::vgpu {

TokenBackend::TokenBackend(sim::Simulation* sim, BackendConfig config)
    : sim_(sim),
      config_(config),
      wheel_(sim, config.coalesce_window),
      tq_(config.tq) {
  assert(sim_ != nullptr);
}

void TokenBackend::RegisterDevice(const GpuUuid& device) {
  devices_.try_emplace(device);
}

Status TokenBackend::RegisterContainer(const ContainerId& container,
                                       const GpuUuid& device,
                                       const ResourceSpec& spec,
                                       TokenClient* client) {
  KS_RETURN_IF_ERROR(spec.Validate());
  if (client == nullptr) return InvalidArgumentError("null token client");
  if (containers_.count(container) > 0) {
    return AlreadyExistsError("container already registered: " +
                              container.value());
  }
  if (down_) {
    // The daemon is restarting; the frontend's connect parks until it is
    // back, then it is admitted with the reattach batch.
    if (pending_reattach_.count(container) > 0) {
      return AlreadyExistsError("container already registered: " +
                                container.value());
    }
    pending_reattach_[container] = {device, spec, client};
    return Status::Ok();
  }
  RegisterDevice(device);
  ContainerState state{config_.usage_window};
  state.device = device;
  state.spec = spec;
  state.client = client;
  containers_.emplace(container, std::move(state));
  if (Enforcing()) {
    if (gpu::GpuDevice* d = ResolveDevice(device)) {
      // Gate closed (no admitted epoch) until the first grant; the memory
      // quota is the server-side wall the bypassable frontend hook only
      // mirrors. Re-registration after a daemon restart keeps an existing
      // gate's state (EnforceTokenGate is emplace-only), so fenced epochs
      // stay fenced across the restart.
      d->EnforceTokenGate(container);
      d->SetMemoryQuota(
          container,
          static_cast<std::uint64_t>(std::llround(
              spec.gpu_mem * static_cast<double>(d->spec().memory_bytes))));
    }
  }
  return Status::Ok();
}

Status TokenBackend::UnregisterContainer(const ContainerId& container) {
  // A container dying while the daemon is down (or before its reattach
  // fires) must not be resurrected by the restart path.
  const bool was_pending = pending_reattach_.erase(container) > 0;
  auto it = containers_.find(container);
  if (it == containers_.end()) {
    if (was_pending) return Status::Ok();
    return NotFoundError("container not registered: " + container.value());
  }
  DeviceState& dev = devices_.at(it->second.device);
  const GpuUuid device_id = it->second.device;
  // Drop from the wait queue if present.
  dev.queue.erase(std::remove(dev.queue.begin(), dev.queue.end(), container),
                  dev.queue.end());
  // A reeval poll armed for a queue this unregistration just emptied would
  // dangle until it fired as a no-op; the wheel's generation stamp makes
  // the cancel safe even if the tick is already being dispatched.
  CancelIdleReeval(dev);
  if (Enforcing()) {
    // The container is gone (OOM-kill, node crash, eviction teardown):
    // its gate and quota leave the device with it. Its violation ledger
    // entry stays — unregistering is not absolution, and a requeued
    // successor under the same id inherits the record.
    if (gpu::GpuDevice* d = ResolveDevice(device_id)) {
      d->LiftTokenGate(container);
      d->ClearMemoryQuota(container);
    }
  }
  if (config_.spatial_enabled) {
    auto hit = dev.holds.find(container);
    const bool held = hit != dev.holds.end();
    if (held) {
      if (hit->second.expiry_timer != sim::kInvalidTimer) {
        wheel_.Cancel(hit->second.expiry_timer);
      }
      if (hit->second.fence_timer != sim::kInvalidTimer) {
        wheel_.Cancel(hit->second.fence_timer);
      }
      dev.groups_held -= hit->second.groups;
      dev.holds.erase(hit);
    }
    containers_.erase(it);
    if (held) TryGrantSpatial(device_id);
    return Status::Ok();
  }
  const bool was_holder = dev.holder.has_value() && *dev.holder == container;
  if (was_holder) {
    if (dev.expiry_timer != sim::kInvalidTimer) {
      wheel_.Cancel(dev.expiry_timer);
      dev.expiry_timer = sim::kInvalidTimer;
    }
    if (dev.fence_timer != sim::kInvalidTimer) {
      wheel_.Cancel(dev.fence_timer);
      dev.fence_timer = sim::kInvalidTimer;
    }
    dev.holder.reset();
    dev.token_valid = false;
    dev.grant_in_flight = false;
  }
  containers_.erase(it);
  if (was_holder) TryGrant(device_id);
  return Status::Ok();
}

Status TokenBackend::UpdateSpec(const ContainerId& container,
                                const ResourceSpec& spec) {
  KS_RETURN_IF_ERROR(spec.Validate());
  auto it = containers_.find(container);
  if (it == containers_.end()) {
    return NotFoundError("container not registered: " + container.value());
  }
  it->second.spec.gpu_request = spec.gpu_request;
  it->second.spec.gpu_limit = spec.gpu_limit;
  // A raised limit may unblock throttled waiters right away.
  TryGrant(it->second.device);
  return Status::Ok();
}

Status TokenBackend::RequestToken(const ContainerId& container) {
  auto it = containers_.find(container);
  if (it == containers_.end()) {
    return NotFoundError("container not registered: " + container.value());
  }
  ContainerState& state = it->second;
  DeviceState& dev = devices_.at(state.device);
  if (config_.spatial_enabled) {
    auto hit = dev.holds.find(container);
    if (hit != dev.holds.end() &&
        (hit->second.valid || hit->second.in_flight)) {
      return Status::Ok();  // already holding (or being granted) a token
    }
  } else if (dev.holder.has_value() && *dev.holder == container &&
             (dev.token_valid || dev.grant_in_flight)) {
    return Status::Ok();  // already holding (or being granted) a valid token
  }
  // An expired holder may queue BEFORE it releases: its re-request must be
  // on the table when the release triggers the next grant decision, or a
  // two-container device degenerates to strict alternation and gpu_request
  // pinning never engages (the releaser would always be absent from the
  // queue the policy chooses from).
  if (state.queued) return Status::Ok();
  state.queued = true;
  state.enqueue_seq = next_seq_++;
  dev.queue.push_back(container);
  TryGrant(state.device);
  return Status::Ok();
}

Status TokenBackend::ReleaseToken(const ContainerId& container) {
  auto it = containers_.find(container);
  if (it == containers_.end()) {
    return NotFoundError("container not registered: " + container.value());
  }
  ContainerState& state = it->second;
  DeviceState& dev = devices_.at(state.device);
  if (config_.spatial_enabled) {
    auto hit = dev.holds.find(container);
    if (hit == dev.holds.end()) {
      return FailedPreconditionError("container does not hold the token: " +
                                     container.value());
    }
    const Time now = sim_->Now();
    state.usage.Stop(now);
    if (now > state.grant_time) {
      state.stats.held_total += now - state.grant_time;
    }
    Hold& hold = hit->second;
    if (!hold.valid && !hold.in_flight && now > hold.expiry) {
      state.stats.overrun_total += now - hold.expiry;
    }
    if (hold.expiry_timer != sim::kInvalidTimer) {
      wheel_.Cancel(hold.expiry_timer);
    }
    if (hold.fence_timer != sim::kInvalidTimer) {
      wheel_.Cancel(hold.fence_timer);
    }
    dev.groups_held -= hold.groups;
    dev.holds.erase(hit);
    if (Enforcing()) {
      // Clean close of the gate: submits between this release and the
      // next grant are rejected (that is the flood containment), without
      // counting an overstay against a polite releaser.
      if (gpu::GpuDevice* d = ResolveDevice(state.device)) {
        d->FenceTokenEpoch(container);
      }
    }
    RecordGrantTrace("release", container, now);
    TryGrantSpatial(state.device);
    return Status::Ok();
  }
  if (!dev.holder.has_value() || *dev.holder != container) {
    return FailedPreconditionError("container does not hold the token: " +
                                   container.value());
  }
  state.usage.Stop(sim_->Now());
  // Hold accounting: total hold time and the slice past the quota deadline
  // (overrun from non-preemptive kernels).
  const Time now = sim_->Now();
  if (now > state.grant_time) {
    state.stats.held_total += now - state.grant_time;
  }
  if (!dev.token_valid && now > dev.expiry) {
    state.stats.overrun_total += now - dev.expiry;
  }
  if (dev.expiry_timer != sim::kInvalidTimer) {
    wheel_.Cancel(dev.expiry_timer);
    dev.expiry_timer = sim::kInvalidTimer;
  }
  if (dev.fence_timer != sim::kInvalidTimer) {
    wheel_.Cancel(dev.fence_timer);
    dev.fence_timer = sim::kInvalidTimer;
  }
  dev.holder.reset();
  dev.token_valid = false;
  if (Enforcing()) {
    if (gpu::GpuDevice* d = ResolveDevice(state.device)) {
      d->FenceTokenEpoch(container);
    }
  }
  RecordGrantTrace("release", container, now);
  TryGrant(state.device);
  return Status::Ok();
}

TokenBackend::ContainerStats TokenBackend::StatsOf(
    const ContainerId& container) const {
  auto it = containers_.find(container);
  if (it == containers_.end()) return {};
  return it->second.stats;
}

std::size_t TokenBackend::max_retained_intervals() const {
  std::size_t most = 0;
  for (const auto& [id, state] : containers_) {
    most = std::max(most, state.usage.retained_intervals().size());
  }
  return most;
}

Status TokenBackend::ExtendQuota(const ContainerId& container,
                                 Duration extra) {
  auto it = containers_.find(container);
  if (it == containers_.end()) {
    return NotFoundError("container not registered: " + container.value());
  }
  DeviceState& dev = devices_.at(it->second.device);
  const GpuUuid device_id = it->second.device;
  if (config_.spatial_enabled) {
    auto hit = dev.holds.find(container);
    if (hit == dev.holds.end() || !hit->second.valid) {
      return FailedPreconditionError("container holds no valid token: " +
                                     container.value());
    }
    if (extra.count() <= 0) return Status::Ok();
    Hold& hold = hit->second;
    wheel_.Cancel(hold.expiry_timer);
    hold.expiry += extra;
    const ContainerId holder = container;
    hold.expiry_timer = wheel_.ScheduleAt(hold.expiry,
                                          [this, device_id, holder] {
      OnHoldExpiry(device_id, holder);
    });
    if (hold.fence_timer != sim::kInvalidTimer) {
      wheel_.Cancel(hold.fence_timer);
      hold.fence_timer = wheel_.ScheduleAt(
          hold.expiry + config_.enforcement.fence_grace,
          [this, device_id, holder] {
            OnHoldFenceDeadline(device_id, holder);
          });
    }
    return Status::Ok();
  }
  if (!dev.holder.has_value() || *dev.holder != container ||
      !dev.token_valid) {
    return FailedPreconditionError("container holds no valid token: " +
                                   container.value());
  }
  if (extra.count() <= 0) return Status::Ok();
  wheel_.Cancel(dev.expiry_timer);
  dev.expiry += extra;
  dev.expiry_timer = wheel_.ScheduleAt(dev.expiry, [this, device_id] {
    OnExpiry(device_id);
  });
  if (dev.fence_timer != sim::kInvalidTimer) {
    wheel_.Cancel(dev.fence_timer);
    dev.fence_timer = wheel_.ScheduleAt(
        dev.expiry + config_.enforcement.fence_grace,
        [this, device_id] { OnFenceDeadline(device_id); });
  }
  return Status::Ok();
}

double TokenBackend::UsageOf(const ContainerId& container) const {
  auto it = containers_.find(container);
  if (it == containers_.end()) return 0.0;
  return it->second.usage.Usage(sim_->Now());
}

std::optional<ContainerId> TokenBackend::HolderOf(const GpuUuid& device) const {
  auto it = devices_.find(device);
  if (it == devices_.end()) return std::nullopt;
  if (config_.spatial_enabled && !it->second.holds.empty()) {
    return it->second.holds.begin()->first;
  }
  return it->second.holder;
}

std::size_t TokenBackend::ActiveHolders(const GpuUuid& device) const {
  auto it = devices_.find(device);
  if (it == devices_.end()) return 0;
  if (config_.spatial_enabled) return it->second.holds.size();
  return it->second.holder.has_value() ? 1 : 0;
}

std::size_t TokenBackend::QueueLength(const GpuUuid& device) const {
  auto it = devices_.find(device);
  if (it == devices_.end()) return 0;
  return it->second.queue.size();
}

void TokenBackend::ScheduleReeval(DeviceState& dev, const GpuUuid& device_id) {
  if (dev.reeval_timer != sim::kInvalidTimer) return;
  dev.reeval_timer = wheel_.ScheduleAfter(config_.reeval_period, [this,
                                                                  device_id] {
    auto it = devices_.find(device_id);
    if (it == devices_.end()) return;
    it->second.reeval_timer = sim::kInvalidTimer;
    TryGrant(device_id);
  });
}

void TokenBackend::CancelIdleReeval(DeviceState& dev) {
  if (dev.queue.empty() && dev.reeval_timer != sim::kInvalidTimer) {
    wheel_.Cancel(dev.reeval_timer);
    dev.reeval_timer = sim::kInvalidTimer;
  }
}

void TokenBackend::TryGrant(const GpuUuid& device_id) {
  if (config_.spatial_enabled) {
    TryGrantSpatial(device_id);
    return;
  }
  DeviceState& dev = devices_.at(device_id);
  if (dev.holder.has_value() || dev.grant_in_flight) return;
  if (dev.queue.empty()) return;

  const Time now = sim_->Now();

  // Step 1: filter requesters already at their gpu_limit. Usage and spec
  // go through the enforcement lens: measured (not self-reported)
  // attribution, and clamped limits for repeat offenders.
  std::vector<ContainerId> eligible;
  for (const ContainerId& c : dev.queue) {
    const ContainerState& s = containers_.at(c);
    if (SchedulingUsage(s, now) < EffectiveLimit(c, s)) eligible.push_back(c);
  }
  if (eligible.empty()) {
    // Everyone is throttled; usage decays as the window slides, so check
    // again shortly.
    ScheduleReeval(dev, device_id);
    return;
  }

  // Step 2: prefer the container farthest below its guaranteed minimum.
  const ContainerId* pick = nullptr;
  double best_deficit = 0.0;
  std::uint64_t best_seq = 0;
  for (const ContainerId& c : eligible) {
    const ContainerState& s = containers_.at(c);
    const double deficit = EffectiveRequest(c, s) - SchedulingUsage(s, now);
    if (deficit <= 0.0) continue;
    if (pick == nullptr || deficit > best_deficit ||
        (deficit == best_deficit && s.enqueue_seq < best_seq)) {
      pick = &c;
      best_deficit = deficit;
      best_seq = s.enqueue_seq;
    }
  }

  // Step 3: all requesters have met their minimum — grant to the lowest
  // current usage so residual capacity is divided fairly.
  if (pick == nullptr) {
    double best_usage = 0.0;
    for (const ContainerId& c : eligible) {
      const ContainerState& s = containers_.at(c);
      const double usage = SchedulingUsage(s, now);
      if (pick == nullptr || usage < best_usage ||
          (usage == best_usage && s.enqueue_seq < best_seq)) {
        pick = &c;
        best_usage = usage;
        best_seq = s.enqueue_seq;
      }
    }
  }

  assert(pick != nullptr);
  GrantTo(dev, device_id, *pick);
}

void TokenBackend::GrantTo(DeviceState& dev, const GpuUuid& device_id,
                           const ContainerId& container) {
  ContainerState& state = containers_.at(container);
  dev.queue.erase(std::remove(dev.queue.begin(), dev.queue.end(), container),
                  dev.queue.end());
  state.queued = false;
  dev.holder = container;
  dev.grant_in_flight = true;
  ++grants_;
  peak_holders_ = std::max<std::size_t>(peak_holders_, 1);

  // The hand-off costs one exchange latency, during which the device is
  // idle; the token is valid from the end of the exchange for one quota.
  // The epoch guard is belt-and-braces here: a restart also invalidates
  // this wheel timer outright.
  const ContainerId granted = container;
  wheel_.ScheduleAfter(config_.exchange_latency, [this, device_id, granted,
                                                  epoch = epoch_] {
    if (epoch != epoch_) return;  // daemon restarted mid-exchange
    auto dit = devices_.find(device_id);
    if (dit == devices_.end()) return;
    DeviceState& d = dit->second;
    if (!d.holder.has_value() || *d.holder != granted) return;  // unregistered
    auto cit = containers_.find(granted);
    if (cit == containers_.end()) return;
    d.grant_in_flight = false;
    d.token_valid = true;
    // While the thrash detector has this device in TQ rotation the grant
    // carries the nvshare-style exclusive quantum instead of the normal
    // quota — long residency bursts instead of a migration per hand-off.
    d.expiry = sim_->Now() + GrantQuotaFor(device_id);
    cit->second.grant_time = sim_->Now();
    ++cit->second.stats.grants;
    cit->second.usage.Start(sim_->Now());
    d.expiry_timer = wheel_.ScheduleAt(d.expiry, [this, device_id] {
      OnExpiry(device_id);
    });
    if (Enforcing()) {
      // Open the device gate for this grant only: a fresh monotonic epoch
      // is admitted, and the overstay deadline is armed one fence_grace
      // past the quota so a polite overrun (one non-preemptive kernel)
      // never trips it.
      if (gpu::GpuDevice* gd = ResolveDevice(device_id)) {
        gd->AdmitTokenEpoch(granted, ++token_epoch_);
      }
      d.fence_timer = wheel_.ScheduleAt(
          d.expiry + config_.enforcement.fence_grace,
          [this, device_id] { OnFenceDeadline(device_id); });
    }
    RecordGrantTrace("grant", granted, d.expiry);
    cit->second.client->OnTokenGranted(d.expiry);
  });
}

void TokenBackend::Restart() {
  ++epoch_;  // invalidate in-flight grant hand-offs
  ++restarts_;
  down_ = true;
  RecordGrantTrace("restart", ContainerId(""), sim_->Now());
  // All per-device token state dies with the daemon. One wholesale wheel
  // invalidation replaces the per-timer cancels: every outstanding timer
  // id of the old incarnation goes stale at once (generation stamps), so
  // nothing can fire into the new one.
  wheel_.InvalidateAll();
  for (auto& [device_id, dev] : devices_) {
    if (Enforcing()) {
      // Every outstanding token dies with the daemon: fence the holders'
      // epochs at the device so nothing can submit on a zombie token
      // during the downtime. Grants of the new incarnation admit fresh
      // (still-monotonic) epochs. Per-owner fencing is order-independent,
      // so iterating the unordered device map here is deterministic.
      if (gpu::GpuDevice* d = ResolveDevice(device_id)) {
        if (dev.holder.has_value()) d->FenceTokenEpoch(*dev.holder);
        for (const auto& entry : dev.holds) {
          d->FenceTokenEpoch(entry.first);
        }
      }
    }
    dev.expiry_timer = sim::kInvalidTimer;
    dev.reeval_timer = sim::kInvalidTimer;
    dev.fence_timer = sim::kInvalidTimer;
    dev.queue.clear();
    dev.holder.reset();
    dev.token_valid = false;
    dev.grant_in_flight = false;
    dev.holds.clear();
    dev.groups_held = 0;
  }
  // Registered frontends become reattach candidates: their sockets
  // reconnect once the daemon is back. Sliding-window usage is lost — the
  // rebuilt daemon starts everyone from a clean slate.
  for (const auto& [container, state] : containers_) {
    pending_reattach_[container] = {state.device, state.spec, state.client};
  }
  containers_.clear();
  // The come-back deadline re-arms the wheel for the new incarnation.
  wheel_.ScheduleAfter(config_.restart_downtime, [this, epoch = epoch_] {
    if (epoch != epoch_) return;  // restarted again before coming up
    down_ = false;
    // pending_reattach_ is a sorted map — deterministic reattach order.
    auto batch = std::move(pending_reattach_);
    pending_reattach_.clear();
    for (const auto& [container, info] : batch) {
      if (!RegisterContainer(container, info.device, info.spec, info.client)
               .ok()) {
        continue;
      }
      ++reattached_;
      info.client->OnBackendRestart();
    }
  });
}

int TokenBackend::ClaimOf(const ContainerState& state) const {
  // No slice claim = the whole GPU: the container holds every SM group,
  // which reduces spatial mode to one-token-at-a-time for it.
  if (state.spec.slice_groups <= 0) return config_.sm_groups;
  return std::min(state.spec.slice_groups, config_.sm_groups);
}

void TokenBackend::TryGrantSpatial(const GpuUuid& device_id) {
  DeviceState& dev = devices_.at(device_id);
  // Grants loop until space or eligibility runs out: one release can admit
  // several small-slice waiters in the same decision.
  while (!dev.queue.empty()) {
    const Time now = sim_->Now();
    const int free = config_.sm_groups - dev.groups_held;

    // Space filter: claims that don't fit the free SM groups wait for a
    // release (not a reeval poll — window decay can't free groups). With
    // every claim full-GPU this reduces to the temporal "holder exists →
    // return" early-out. A queued container that still has a hold is a
    // re-requester racing its own release (the frontend re-requests before
    // releasing); granting it now would stack a second hold on the same
    // entry, which the imminent release would erase — dropping the grant
    // and leaking its groups. Its release re-enters this function and
    // grants it a fresh hold then.
    std::vector<ContainerId> space_eligible;
    for (const ContainerId& c : dev.queue) {
      if (dev.holds.count(c) > 0) continue;
      if (ClaimOf(containers_.at(c)) <= free) space_eligible.push_back(c);
    }
    if (space_eligible.empty()) return;

    // Step 1: filter requesters already at their gpu_limit (measured
    // attribution + clamped specs, as in the temporal path).
    std::vector<ContainerId> eligible;
    for (const ContainerId& c : space_eligible) {
      const ContainerState& s = containers_.at(c);
      if (SchedulingUsage(s, now) < EffectiveLimit(c, s)) {
        eligible.push_back(c);
      }
    }
    if (eligible.empty()) {
      // Everyone who fits is throttled; usage decays as the window
      // slides, so check again shortly.
      ScheduleReeval(dev, device_id);
      return;
    }

    // Step 2: prefer the container farthest below its guaranteed minimum.
    const ContainerId* pick = nullptr;
    double best_deficit = 0.0;
    std::uint64_t best_seq = 0;
    for (const ContainerId& c : eligible) {
      const ContainerState& s = containers_.at(c);
      const double deficit = EffectiveRequest(c, s) - SchedulingUsage(s, now);
      if (deficit <= 0.0) continue;
      if (pick == nullptr || deficit > best_deficit ||
          (deficit == best_deficit && s.enqueue_seq < best_seq)) {
        pick = &c;
        best_deficit = deficit;
        best_seq = s.enqueue_seq;
      }
    }

    // Step 3: all requesters met their minimum — lowest usage wins.
    if (pick == nullptr) {
      double best_usage = 0.0;
      for (const ContainerId& c : eligible) {
        const ContainerState& s = containers_.at(c);
        const double usage = SchedulingUsage(s, now);
        if (pick == nullptr || usage < best_usage ||
            (usage == best_usage && s.enqueue_seq < best_seq)) {
          pick = &c;
          best_usage = usage;
          best_seq = s.enqueue_seq;
        }
      }
    }

    assert(pick != nullptr);
    GrantSpatialTo(dev, device_id, *pick);
  }
}

void TokenBackend::GrantSpatialTo(DeviceState& dev, const GpuUuid& device_id,
                                  const ContainerId& container) {
  ContainerState& state = containers_.at(container);
  dev.queue.erase(std::remove(dev.queue.begin(), dev.queue.end(), container),
                  dev.queue.end());
  state.queued = false;
  Hold& hold = dev.holds[container];
  hold.in_flight = true;
  hold.valid = false;
  hold.groups = ClaimOf(state);
  dev.groups_held += hold.groups;
  peak_holders_ = std::max(peak_holders_, dev.holds.size());
  ++grants_;

  // Same exchange protocol as the temporal GrantTo, per hold: the token
  // becomes valid after one exchange latency, for one quota.
  const ContainerId granted = container;
  wheel_.ScheduleAfter(config_.exchange_latency, [this, device_id, granted,
                                                  epoch = epoch_] {
    if (epoch != epoch_) return;  // daemon restarted mid-exchange
    auto dit = devices_.find(device_id);
    if (dit == devices_.end()) return;
    auto hit = dit->second.holds.find(granted);
    if (hit == dit->second.holds.end()) return;  // unregistered
    auto cit = containers_.find(granted);
    if (cit == containers_.end()) return;
    Hold& h = hit->second;
    h.in_flight = false;
    h.valid = true;
    h.expiry = sim_->Now() + config_.quota;
    cit->second.grant_time = sim_->Now();
    ++cit->second.stats.grants;
    cit->second.usage.Start(sim_->Now());
    h.expiry_timer = wheel_.ScheduleAt(h.expiry, [this, device_id, granted] {
      OnHoldExpiry(device_id, granted);
    });
    if (Enforcing()) {
      if (gpu::GpuDevice* gd = ResolveDevice(device_id)) {
        gd->AdmitTokenEpoch(granted, ++token_epoch_);
      }
      h.fence_timer = wheel_.ScheduleAt(
          h.expiry + config_.enforcement.fence_grace,
          [this, device_id, granted] {
            OnHoldFenceDeadline(device_id, granted);
          });
    }
    RecordGrantTrace("grant", granted, h.expiry);
    cit->second.client->OnTokenGranted(h.expiry);
  });
}

void TokenBackend::OnHoldExpiry(const GpuUuid& device_id,
                                const ContainerId& container) {
  auto dit = devices_.find(device_id);
  if (dit == devices_.end()) return;
  auto hit = dit->second.holds.find(container);
  if (hit == dit->second.holds.end()) return;
  hit->second.expiry_timer = sim::kInvalidTimer;
  hit->second.valid = false;
  auto it = containers_.find(container);
  if (it == containers_.end()) return;
  // As in the temporal path: the holder keeps its groups (and keeps
  // accruing usage) until it releases — kernels are non-preemptive.
  RecordGrantTrace("expire", container, sim_->Now());
  it->second.client->OnTokenExpired();
}

void TokenBackend::OnExpiry(const GpuUuid& device_id) {
  DeviceState& dev = devices_.at(device_id);
  dev.expiry_timer = sim::kInvalidTimer;
  if (!dev.holder.has_value()) return;
  dev.token_valid = false;
  auto it = containers_.find(*dev.holder);
  if (it == containers_.end()) return;
  // The holder keeps the token (and keeps accruing usage) until it releases
  // — its in-flight kernel is non-preemptive.
  RecordGrantTrace("expire", *dev.holder, sim_->Now());
  it->second.client->OnTokenExpired();
}

// --- Isolation enforcement ----------------------------------------------

gpu::GpuDevice* TokenBackend::ResolveDevice(const GpuUuid& device) const {
  if (!device_resolver_) return nullptr;
  return device_resolver_(device);
}

bool TokenBackend::IsClamped(const ContainerId& container) const {
  const auto it = violations_.find(container);
  return it != violations_.end() && it->second.clamped;
}

double TokenBackend::SchedulingUsage(const ContainerState& state,
                                     Time now) const {
  const double measured = state.usage.Usage(now);
  if (!Enforcing() && state.claimed_usage.has_value()) {
    // Without enforcement the daemon trusts the frontend's self-reported
    // sampler value — an under-reporter looks permanently starved and
    // wins every max-deficit / lowest-usage decision. This is the hole
    // bench_study_isolation demonstrates; polite frontends never report,
    // so pre-enforcement behavior is byte-identical.
    return std::min(measured, *state.claimed_usage);
  }
  return measured;
}

double TokenBackend::EffectiveLimit(const ContainerId& container,
                                    const ContainerState& state) const {
  if (Enforcing() && IsClamped(container)) {
    return std::min(state.spec.gpu_limit, config_.enforcement.clamp_limit);
  }
  return state.spec.gpu_limit;
}

double TokenBackend::EffectiveRequest(const ContainerId& container,
                                      const ContainerState& state) const {
  // A clamped tenant keeps no guaranteed minimum: it only sees residual
  // capacity, below its clamped limit.
  if (Enforcing() && IsClamped(container)) return 0.0;
  return state.spec.gpu_request;
}

void TokenBackend::RecordViolation(const ContainerId& container,
                                   ViolationKind kind) {
  if (!Enforcing()) return;
  IsolationStats& s = violations_[container];
  switch (kind) {
    case ViolationKind::kOverstay: ++s.overstays; break;
    case ViolationKind::kFencedSubmit: ++s.fenced_submits; break;
    case ViolationKind::kMemoryQuota: ++s.memory_violations; break;
    case ViolationKind::kMetricsSpoof: ++s.spoofs; break;
  }
  ++violations_total_;
  const EnforcementConfig& e = config_.enforcement;
  if (!s.clamped && e.clamp_threshold > 0 &&
      s.total() >= static_cast<std::uint64_t>(e.clamp_threshold)) {
    s.clamped = true;
    ++clampdowns_total_;
  }
  if (!s.evicted && e.evict_threshold > 0 &&
      s.total() >= static_cast<std::uint64_t>(e.evict_threshold)) {
    s.evicted = true;
    ++evictions_total_;
    if (eviction_fn_) {
      // Deferred one event: violations surface deep inside submit paths
      // (device -> violation fn -> here) and eviction tears the whole
      // workload stack down — re-entering that from under a kernel submit
      // would destroy the very frontend making the call.
      const std::string reason =
          std::string("isolation violations (last: ") + ViolationKindName(kind) +
          ")";
      sim_->ScheduleAfter(Duration{0}, [this, container, reason] {
        if (eviction_fn_) eviction_fn_(container, reason);
      });
    }
  }
}

TokenBackend::IsolationStats TokenBackend::IsolationOf(
    const ContainerId& container) const {
  const auto it = violations_.find(container);
  if (it == violations_.end()) return {};
  return it->second;
}

std::vector<std::pair<ContainerId, TokenBackend::IsolationStats>>
TokenBackend::IsolationLedger() const {
  return {violations_.begin(), violations_.end()};
}

void TokenBackend::ReportUsage(const ContainerId& container, double claimed) {
  auto it = containers_.find(container);
  if (it == containers_.end()) return;
  it->second.claimed_usage = std::max(0.0, claimed);
  if (Enforcing()) {
    // Server-side attribution: the claim never enters scheduling; it is
    // only checked against the daemon's own measurement for under-reports.
    const EnforcementConfig& e = config_.enforcement;
    const double measured = it->second.usage.Usage(sim_->Now());
    if (measured > e.spoof_floor &&
        claimed < measured * (1.0 - e.spoof_tolerance)) {
      RecordViolation(container, ViolationKind::kMetricsSpoof);
    }
  }
}

// --- SLO admission control ------------------------------------------------

void TokenBackend::SetServiceSlo(const ContainerId& container,
                                 Duration slo_p99) {
  if (!config_.admission.enabled) return;
  auto [it, inserted] =
      serving_.try_emplace(container, config_.admission.window);
  it->second.slo = slo_p99;
}

void TokenBackend::ReportRequestLatency(const ContainerId& container, Time now,
                                        Duration latency) {
  if (!config_.admission.enabled) return;
  auto it = serving_.find(container);
  if (it == serving_.end()) return;
  it->second.digest.Record(now, latency);
}

AdmissionDecision TokenBackend::AdmitRequest(const ContainerId& container,
                                             Time now) {
  if (!config_.admission.enabled) return AdmissionDecision::kAdmit;
  auto it = serving_.find(container);
  if (it == serving_.end() || it->second.slo.count() <= 0) {
    return AdmissionDecision::kAdmit;
  }
  ServingState& state = it->second;
  if (state.digest.WindowCount(now) < config_.admission.min_samples) {
    return AdmissionDecision::kAdmit;  // cold start: no trustworthy estimate
  }
  const Duration p99 = state.digest.Quantile(now, 0.99);
  if (ToSeconds(p99) < config_.admission.headroom * ToSeconds(state.slo)) {
    return AdmissionDecision::kAdmit;
  }
  if (config_.admission.policy == AdmissionConfig::Policy::kQueue) {
    ++state.queued;
    ++admission_queued_;
    return AdmissionDecision::kQueue;
  }
  ++state.sheds;
  ++admission_sheds_;
  return AdmissionDecision::kShed;
}

double TokenBackend::ObservedP99Of(const ContainerId& container, Time now) {
  auto it = serving_.find(container);
  if (it == serving_.end()) return 0.0;
  return it->second.digest.QuantileSeconds(now, 0.99);
}

// --- Memory oversubscription (nvshare-TQ) --------------------------------

Duration TokenBackend::GrantQuotaFor(const GpuUuid& device_id) {
  if (!config_.tq.enabled) return config_.quota;
  return tq_.Engaged(device_id, sim_->Now()) ? config_.tq.quantum
                                             : config_.quota;
}

void TokenBackend::ReportSwapBytes(const ContainerId& container,
                                   std::uint64_t bytes) {
  if (!config_.tq.enabled || bytes == 0) return;
  auto it = containers_.find(container);
  if (it == containers_.end()) return;
  tq_.OnSwapBytes(it->second.device, bytes, sim_->Now());
}

void TokenBackend::OnFenceDeadline(const GpuUuid& device_id) {
  auto dit = devices_.find(device_id);
  if (dit == devices_.end()) return;
  DeviceState& dev = dit->second;
  dev.fence_timer = sim::kInvalidTimer;
  // A clean release or an ExtendQuota re-arm cancels this timer, so firing
  // with a valid token (or no holder) means a stale tick — ignore it.
  if (!dev.holder.has_value() || dev.token_valid) return;
  const ContainerId container = *dev.holder;
  auto cit = containers_.find(container);
  if (cit == containers_.end()) return;
  ContainerState& state = cit->second;
  const Time now = sim_->Now();
  // The holder sat on an expired token a full fence_grace past the quota:
  // declare the overstay, fence its epoch at the device (in-flight
  // kernels finish, nothing new is admitted), and reclaim the token so
  // polite waiters stop starving.
  state.usage.Stop(now);
  if (now > state.grant_time) {
    state.stats.held_total += now - state.grant_time;
  }
  if (now > dev.expiry) {
    state.stats.overrun_total += now - dev.expiry;
  }
  if (gpu::GpuDevice* d = ResolveDevice(device_id)) {
    d->FenceTokenEpoch(container);
  }
  dev.holder.reset();
  dev.token_valid = false;
  dev.grant_in_flight = false;
  RecordGrantTrace("fence", container, now);
  RecordViolation(container, ViolationKind::kOverstay);
  TryGrant(device_id);
}

void TokenBackend::OnHoldFenceDeadline(const GpuUuid& device_id,
                                       const ContainerId& container) {
  auto dit = devices_.find(device_id);
  if (dit == devices_.end()) return;
  DeviceState& dev = dit->second;
  auto hit = dev.holds.find(container);
  if (hit == dev.holds.end()) return;
  Hold& hold = hit->second;
  hold.fence_timer = sim::kInvalidTimer;
  if (hold.valid || hold.in_flight) return;  // stale tick
  auto cit = containers_.find(container);
  if (cit == containers_.end()) return;
  ContainerState& state = cit->second;
  const Time now = sim_->Now();
  state.usage.Stop(now);
  if (now > state.grant_time) {
    state.stats.held_total += now - state.grant_time;
  }
  if (now > hold.expiry) {
    state.stats.overrun_total += now - hold.expiry;
  }
  if (gpu::GpuDevice* d = ResolveDevice(device_id)) {
    d->FenceTokenEpoch(container);
  }
  dev.groups_held -= hold.groups;
  dev.holds.erase(hit);
  RecordGrantTrace("fence", container, now);
  RecordViolation(container, ViolationKind::kOverstay);
  TryGrantSpatial(device_id);
}

}  // namespace ks::vgpu
