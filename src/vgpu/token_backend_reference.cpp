#include "vgpu/token_backend_reference.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace ks::vgpu {

TokenBackendReference::TokenBackendReference(sim::Simulation* sim,
                                             BackendConfig config)
    : sim_(sim), config_(config) {
  assert(sim_ != nullptr);
}

void TokenBackendReference::RegisterDevice(const GpuUuid& device) {
  devices_.try_emplace(device);
}

Status TokenBackendReference::RegisterContainer(const ContainerId& container,
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
  return Status::Ok();
}

Status TokenBackendReference::UnregisterContainer(
    const ContainerId& container) {
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
  // Same fix as the wheel backend: a reeval poll armed for a queue this
  // unregistration just emptied must not dangle until it fires as a no-op.
  CancelIdleReeval(dev);
  const bool was_holder = dev.holder.has_value() && *dev.holder == container;
  if (was_holder) {
    if (dev.expiry_event != sim::kInvalidEvent) {
      sim_->Cancel(dev.expiry_event);
      dev.expiry_event = sim::kInvalidEvent;
    }
    dev.holder.reset();
    dev.token_valid = false;
    dev.grant_in_flight = false;
  }
  containers_.erase(it);
  if (was_holder) TryGrant(device_id);
  return Status::Ok();
}

Status TokenBackendReference::UpdateSpec(const ContainerId& container,
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

Status TokenBackendReference::RequestToken(const ContainerId& container) {
  auto it = containers_.find(container);
  if (it == containers_.end()) {
    return NotFoundError("container not registered: " + container.value());
  }
  ContainerState& state = it->second;
  DeviceState& dev = devices_.at(state.device);
  if (dev.holder.has_value() && *dev.holder == container &&
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

Status TokenBackendReference::ReleaseToken(const ContainerId& container) {
  auto it = containers_.find(container);
  if (it == containers_.end()) {
    return NotFoundError("container not registered: " + container.value());
  }
  ContainerState& state = it->second;
  DeviceState& dev = devices_.at(state.device);
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
  if (dev.expiry_event != sim::kInvalidEvent) {
    sim_->Cancel(dev.expiry_event);
    dev.expiry_event = sim::kInvalidEvent;
  }
  dev.holder.reset();
  dev.token_valid = false;
  RecordGrantTrace("release", container, now);
  TryGrant(state.device);
  return Status::Ok();
}

TokenBackendReference::ContainerStats TokenBackendReference::StatsOf(
    const ContainerId& container) const {
  auto it = containers_.find(container);
  if (it == containers_.end()) return {};
  return it->second.stats;
}

std::size_t TokenBackendReference::max_retained_intervals() const {
  std::size_t most = 0;
  for (const auto& [id, state] : containers_) {
    most = std::max(most, state.usage.retained_intervals().size());
  }
  return most;
}

Status TokenBackendReference::ExtendQuota(const ContainerId& container,
                                          Duration extra) {
  auto it = containers_.find(container);
  if (it == containers_.end()) {
    return NotFoundError("container not registered: " + container.value());
  }
  DeviceState& dev = devices_.at(it->second.device);
  if (!dev.holder.has_value() || *dev.holder != container ||
      !dev.token_valid) {
    return FailedPreconditionError("container holds no valid token: " +
                                   container.value());
  }
  if (extra.count() <= 0) return Status::Ok();
  const GpuUuid device_id = it->second.device;
  sim_->Cancel(dev.expiry_event);
  dev.expiry += extra;
  dev.expiry_event = sim_->ScheduleAt(dev.expiry, [this, device_id] {
    OnExpiry(device_id);
  });
  return Status::Ok();
}

double TokenBackendReference::UsageOf(const ContainerId& container) const {
  auto it = containers_.find(container);
  if (it == containers_.end()) return 0.0;
  return it->second.usage.Usage(sim_->Now());
}

std::optional<ContainerId> TokenBackendReference::HolderOf(
    const GpuUuid& device) const {
  auto it = devices_.find(device);
  if (it == devices_.end()) return std::nullopt;
  return it->second.holder;
}

std::size_t TokenBackendReference::QueueLength(const GpuUuid& device) const {
  auto it = devices_.find(device);
  if (it == devices_.end()) return 0;
  return it->second.queue.size();
}

std::size_t TokenBackendReference::pending_timers() const {
  std::size_t n = down_ ? 1 : 0;  // the restart come-back deadline
  for (const auto& [device_id, dev] : devices_) {
    if (dev.expiry_event != sim::kInvalidEvent) ++n;
    if (dev.reeval_event != sim::kInvalidEvent) ++n;
  }
  return n;
}

void TokenBackendReference::ScheduleReeval(DeviceState& dev,
                                           const GpuUuid& device_id) {
  if (dev.reeval_event != sim::kInvalidEvent) return;
  dev.reeval_event = sim_->ScheduleAfter(config_.reeval_period, [this,
                                                                 device_id] {
    auto it = devices_.find(device_id);
    if (it == devices_.end()) return;
    it->second.reeval_event = sim::kInvalidEvent;
    TryGrant(device_id);
  });
}

void TokenBackendReference::CancelIdleReeval(DeviceState& dev) {
  if (dev.queue.empty() && dev.reeval_event != sim::kInvalidEvent) {
    sim_->Cancel(dev.reeval_event);
    dev.reeval_event = sim::kInvalidEvent;
  }
}

void TokenBackendReference::TryGrant(const GpuUuid& device_id) {
  DeviceState& dev = devices_.at(device_id);
  if (dev.holder.has_value() || dev.grant_in_flight) return;
  if (dev.queue.empty()) return;

  const Time now = sim_->Now();

  // Step 1: filter requesters already at their gpu_limit.
  std::vector<ContainerId> eligible;
  for (const ContainerId& c : dev.queue) {
    const ContainerState& s = containers_.at(c);
    if (s.usage.Usage(now) < s.spec.gpu_limit) eligible.push_back(c);
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
    const double deficit = s.spec.gpu_request - s.usage.Usage(now);
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
      const double usage = s.usage.Usage(now);
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

void TokenBackendReference::GrantTo(DeviceState& dev, const GpuUuid& device_id,
                                    const ContainerId& container) {
  ContainerState& state = containers_.at(container);
  dev.queue.erase(std::remove(dev.queue.begin(), dev.queue.end(), container),
                  dev.queue.end());
  state.queued = false;
  dev.holder = container;
  dev.grant_in_flight = true;
  ++grants_;

  // The hand-off costs one exchange latency, during which the device is
  // idle; the token is valid from the end of the exchange for one quota.
  const ContainerId granted = container;
  sim_->ScheduleAfter(config_.exchange_latency, [this, device_id, granted,
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
    d.expiry = sim_->Now() + config_.quota;
    cit->second.grant_time = sim_->Now();
    ++cit->second.stats.grants;
    cit->second.usage.Start(sim_->Now());
    d.expiry_event = sim_->ScheduleAt(d.expiry, [this, device_id] {
      OnExpiry(device_id);
    });
    RecordGrantTrace("grant", granted, d.expiry);
    cit->second.client->OnTokenGranted(d.expiry);
  });
}

void TokenBackendReference::Restart() {
  ++epoch_;  // invalidate in-flight grant hand-offs
  ++restarts_;
  down_ = true;
  RecordGrantTrace("restart", ContainerId(""), sim_->Now());
  // All per-device token state dies with the daemon; pending timers are
  // cancelled so nothing from the old incarnation fires into the new one.
  for (auto& [device_id, dev] : devices_) {
    if (dev.expiry_event != sim::kInvalidEvent) {
      sim_->Cancel(dev.expiry_event);
      dev.expiry_event = sim::kInvalidEvent;
    }
    if (dev.reeval_event != sim::kInvalidEvent) {
      sim_->Cancel(dev.reeval_event);
      dev.reeval_event = sim::kInvalidEvent;
    }
    dev.queue.clear();
    dev.holder.reset();
    dev.token_valid = false;
    dev.grant_in_flight = false;
  }
  // Registered frontends become reattach candidates: their sockets
  // reconnect once the daemon is back. Sliding-window usage is lost — the
  // rebuilt daemon starts everyone from a clean slate.
  for (const auto& [container, state] : containers_) {
    pending_reattach_[container] = {state.device, state.spec, state.client};
  }
  containers_.clear();
  sim_->ScheduleAfter(config_.restart_downtime, [this, epoch = epoch_] {
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

void TokenBackendReference::OnExpiry(const GpuUuid& device_id) {
  DeviceState& dev = devices_.at(device_id);
  dev.expiry_event = sim::kInvalidEvent;
  if (!dev.holder.has_value()) return;
  dev.token_valid = false;
  auto it = containers_.find(*dev.holder);
  if (it == containers_.end()) return;
  // The holder keeps the token (and keeps accruing usage) until it releases
  // — its in-flight kernel is non-preemptive.
  RecordGrantTrace("expire", *dev.holder, sim_->Now());
  it->second.client->OnTokenExpired();
}

}  // namespace ks::vgpu
