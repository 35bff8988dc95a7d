#pragma once

#include <deque>
#include <map>
#include <optional>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/sliding_window.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "sim/simulation.hpp"
#include "vgpu/token_backend.hpp"

namespace ks::vgpu {

/// The original event-per-deadline backend daemon, kept verbatim as the
/// oracle for the wheel-based TokenBackend (the ScheduleSharePodReference
/// pattern): every quota expiry, grant hand-off, reeval poll, and restart
/// deadline is its own engine event. tests/vgpu/token_wheel_equivalence_
/// test.cpp replays seeded churn through both implementations and demands
/// identical grant/usage/violation traces; bench_engine's token-cluster
/// scenario measures the event-count gap the wheel closes.
///
/// BackendConfig::coalesce_window is ignored here — deadlines fire at
/// their exact microsecond.
class TokenBackendReference : public TokenBackendApi {
 public:
  TokenBackendReference(sim::Simulation* sim, BackendConfig config = {});

  const BackendConfig& config() const override { return config_; }
  void RegisterDevice(const GpuUuid& device) override;
  Status RegisterContainer(const ContainerId& container, const GpuUuid& device,
                           const ResourceSpec& spec,
                           TokenClient* client) override;
  Status UnregisterContainer(const ContainerId& container) override;
  Status UpdateSpec(const ContainerId& container,
                    const ResourceSpec& spec) override;
  Status RequestToken(const ContainerId& container) override;
  Status ReleaseToken(const ContainerId& container) override;
  Status ExtendQuota(const ContainerId& container, Duration extra) override;
  double UsageOf(const ContainerId& container) const override;
  std::optional<ContainerId> HolderOf(const GpuUuid& device) const override;
  std::size_t QueueLength(const GpuUuid& device) const override;
  std::uint64_t grants() const override { return grants_; }
  void Restart() override;
  std::uint64_t restarts() const override { return restarts_; }
  std::uint64_t reattached() const override { return reattached_; }
  bool down() const override { return down_; }
  ContainerStats StatsOf(const ContainerId& container) const override;
  std::size_t max_retained_intervals() const override;
  std::size_t pending_timers() const override;

 private:
  struct ContainerState {
    GpuUuid device;
    ResourceSpec spec;
    TokenClient* client = nullptr;
    SlidingWindowUsage usage;
    bool queued = false;
    std::uint64_t enqueue_seq = 0;  // FIFO tie-break
    Time grant_time{0};             // of the current hold
    ContainerStats stats;
    explicit ContainerState(Duration window) : usage(window) {}
  };

  struct DeviceState {
    std::deque<ContainerId> queue;
    std::optional<ContainerId> holder;
    bool token_valid = false;       // false while expired-but-not-released
    bool grant_in_flight = false;   // exchange latency elapsing
    Time expiry{0};                 // current quota deadline
    sim::EventId expiry_event = sim::kInvalidEvent;
    sim::EventId reeval_event = sim::kInvalidEvent;
  };

  void TryGrant(const GpuUuid& device);
  void GrantTo(DeviceState& dev, const GpuUuid& device_id,
               const ContainerId& container);
  void OnExpiry(const GpuUuid& device);
  void ScheduleReeval(DeviceState& dev, const GpuUuid& device_id);
  void CancelIdleReeval(DeviceState& dev);

  /// What the daemon needs to re-admit a surviving frontend after a
  /// restart. Keyed by a sorted map so reattach order is deterministic.
  struct ReattachInfo {
    GpuUuid device;
    ResourceSpec spec;
    TokenClient* client = nullptr;
  };

  sim::Simulation* sim_;
  BackendConfig config_;
  std::unordered_map<GpuUuid, DeviceState> devices_;
  std::unordered_map<ContainerId, ContainerState> containers_;
  std::map<ContainerId, ReattachInfo> pending_reattach_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t grants_ = 0;
  /// Bumped by Restart(); in-flight grant hand-offs no-op across it.
  std::uint64_t epoch_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t reattached_ = 0;
  bool down_ = false;
};

}  // namespace ks::vgpu
