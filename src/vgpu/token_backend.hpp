#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baselines/nvshare_tq.hpp"
#include "common/ids.hpp"
#include "common/sliding_window.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "metrics/latency_digest.hpp"
#include "sim/simulation.hpp"
#include "sim/timer_wheel.hpp"
#include "vgpu/resource_spec.hpp"

namespace ks::gpu {
class GpuDevice;
}  // namespace ks::gpu

namespace ks::vgpu {

/// Per-tenant isolation enforcement (ROADMAP item 5, Guardian direction):
/// hard token fencing at the device, quota clamp-down after repeated
/// violations, and eviction of repeat offenders. Off by default — with
/// `enabled == false` every path below is bypassed and the backend is
/// byte-identical to the pre-enforcement behavior, which is what keeps the
/// test-only reference engines (the ks_oracles test library) valid oracles.
struct EnforcementConfig {
  bool enabled = false;
  /// Overrun grace past quota expiry before a still-holding tenant is
  /// declared an overstayer and fenced at the device. Must exceed the
  /// longest polite kernel (kernels are non-preemptive, so polite holders
  /// legitimately overrun by up to one kernel).
  Duration fence_grace = Millis(50);
  /// Violations before the tenant's spec is clamped down (gpu_request
  /// treated as 0, gpu_limit capped at clamp_limit). 0 disables clamping.
  int clamp_threshold = 3;
  double clamp_limit = 0.05;
  /// Violations before the tenant is reported to the eviction callback
  /// (DevMgr tears the sharePod down). 0 disables eviction.
  int evict_threshold = 8;
  /// Self-reported usage below measured * (1 - spoof_tolerance) counts as
  /// a metrics-spoof violation (only checked above spoof_floor, where the
  /// sliding window is meaningful).
  double spoof_tolerance = 0.25;
  double spoof_floor = 0.05;
};

/// Kinds of tenant misbehavior the enforcement layer attributes.
enum class ViolationKind {
  kOverstay,      // still holding fence_grace past quota expiry
  kFencedSubmit,  // kernel submitted without an admitted token epoch
  kMemoryQuota,   // allocation past the device-enforced memory quota
  kMetricsSpoof,  // self-reported usage under-reports measured usage
};

inline const char* ViolationKindName(ViolationKind k) {
  switch (k) {
    case ViolationKind::kOverstay: return "overstay";
    case ViolationKind::kFencedSubmit: return "fenced_submit";
    case ViolationKind::kMemoryQuota: return "memory_quota";
    case ViolationKind::kMetricsSpoof: return "metrics_spoof";
  }
  return "unknown";
}

/// SLO-aware admission control at the daemon (ROADMAP item 4, SGDRC
/// direction): when a service's observed p99 approaches its SLO, the
/// daemon sheds or queues new requests instead of letting the backlog push
/// every request past the deadline. Off by default — with `enabled ==
/// false` the daemon stores no serving state and AdmitRequest always
/// admits, so existing traces stay byte-identical to the test-only
/// reference backend, which admits everything.
struct AdmissionConfig {
  bool enabled = false;
  enum class Policy {
    kShed,   ///< reject at the door (client sees an immediate error)
    kQueue,  ///< hold at the door; the frontend retries after a delay
  };
  Policy policy = Policy::kShed;
  /// Admission trips once observed p99 >= headroom * slo. The p99 is the
  /// metrics::LatencyDigest nearest-rank estimate (bucket lower edge) over
  /// the window's samples.
  double headroom = 0.9;
  /// Sliding window of the per-replica latency counts (two rotating
  /// epochs, metrics::TwoEpochWindow; a decision covers one to two windows
  /// of history).
  Duration window = Seconds(5.0);
  /// Samples required in the window before its p99 is trusted; below
  /// this the daemon admits unconditionally (cold start, quiet service).
  std::uint64_t min_samples = 20;
};

/// What the daemon tells a service frontend about one request at the door.
enum class AdmissionDecision {
  kAdmit,
  kShed,
  kQueue,
};

inline const char* AdmissionDecisionName(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kAdmit: return "admit";
    case AdmissionDecision::kShed: return "shed";
    case AdmissionDecision::kQueue: return "queue";
  }
  return "unknown";
}

/// Tuning knobs of the per-node backend daemon (paper §4.5).
struct BackendConfig {
  /// Time quota attached to each valid token. The paper settles on 100 ms
  /// (Fig 7: <=5% slowdown even at 30 ms; smaller quota = finer control but
  /// more token exchanges).
  Duration quota = Millis(100);
  /// Cost of one token hand-off: the IPC round trip between frontend and
  /// backend plus the CUDA synchronization before yielding. The GPU is idle
  /// for this long on every grant, which is exactly the Fig 7 overhead.
  Duration exchange_latency = Micros(1500);
  /// Sliding window over which per-container usage rates are measured.
  Duration usage_window = Seconds(10.0);
  /// Re-evaluation period while every queued requester sits at its
  /// gpu_limit (usage decays as the window slides, so a requester will
  /// become eligible again without any new event arriving).
  Duration reeval_period = Millis(5);
  /// How long the daemon is down across a Restart() before it has rebuilt
  /// its device state and re-accepts the frontends that survived (systemd
  /// restart + socket re-handshake, scaled to simulation-friendly values).
  Duration restart_downtime = Millis(50);
  /// Timer-wheel tick of the wheel-based TokenBackend: renewals landing in
  /// the same window fire from one engine event. The default is the GCD of
  /// every other duration knob above, so a deadline a grid-aligned event
  /// sets stays exact; one set from an off-grid instant (a RequestToken
  /// from a kernel completion, say) rounds up to the next window. Coarsen
  /// it to trade deadline precision for fewer events (bench_engine's
  /// token-cluster scenario measures the trade). The test-only reference
  /// backend fires every deadline at its exact microsecond instead.
  Duration coalesce_window = Micros(500);
  /// Spatial sharing (MIG-style slices): when enabled, TokenBackend grants
  /// multiple simultaneous tokens per device as long as the holders' SM-
  /// group claims fit the device's `sm_groups`. A container whose
  /// ResourceSpec::slice_groups is 0 claims every group (full-GPU,
  /// temporal-style exclusive hold). The test-only reference backend is
  /// single-token and refuses to be built with spatial_enabled.
  bool spatial_enabled = false;
  int sm_groups = 7;
  /// Isolation enforcement knobs. The test-only reference backend models
  /// polite tenants only and refuses to be built with enforcement on.
  EnforcementConfig enforcement;
  /// nvshare-style exclusive-time-quantum anti-thrashing for memory-
  /// oversubscribed devices: frontends report swap traffic per grant, and
  /// once a device's swap bytes per detection window cross the threshold
  /// its grants switch from `quota` to the (much longer) `tq.quantum`
  /// until the traffic calms. Temporal grant path only (a TQ rotation is
  /// by definition exclusive); off by default. The test-only reference
  /// backend grants plain quotas and refuses to be built with TQ on.
  baselines::NvshareTqConfig tq;
  /// SLO-aware admission control at the daemon door. Off by default. The
  /// test-only reference backend admits everything and refuses to be built
  /// with admission on.
  AdmissionConfig admission;
};

/// Callback surface of the per-container frontend, as seen by the backend.
/// In the real system these are messages over a Unix socket; here they are
/// direct calls dispatched from simulation events.
class TokenClient {
 public:
  virtual ~TokenClient() = default;

  /// The token is now valid for this container until `expiry`. The frontend
  /// may submit kernels until then.
  virtual void OnTokenGranted(Time expiry) = 0;

  /// The quota ran out. The frontend must stop submitting new kernels and
  /// call ReleaseToken() once its in-flight kernel (if any) retires —
  /// kernels are non-preemptive, so a small overrun is possible.
  virtual void OnTokenExpired() = 0;

  /// The backend daemon restarted and has just re-registered this frontend
  /// (the socket reconnected). Any token the frontend believed it held is
  /// gone — it must drop its token state and re-request if it has work.
  virtual void OnBackendRestart() {}
};

/// The contract of the per-node backend daemon: one instance manages the
/// tokens of every GPU on a node independently (paper: "only one backend
/// module is needed on a host machine").
///
/// Token scheduling follows the paper's three-step elastic policy verbatim:
///  1. filter requesters whose sliding-window usage already reached their
///     gpu_limit;
///  2. among the rest, prefer the container farthest below its gpu_request
///     (guaranteeing minimum demands — KubeShare-Sched never over-commits
///     the sum of gpu_requests on a device);
///  3. if every requester has reached its gpu_request, grant to the one
///     with the lowest current usage (fair division of residual capacity).
///
/// TokenBackend, which batches every daemon deadline onto a per-node timer
/// wheel, is the one production implementation. The interface exists so
/// tests can substitute the one-event-per-deadline reference backend, a
/// test-only oracle in the ks_oracles test library injected through
/// k8s::ClusterParts. The wheel matches it trace-for-trace when every
/// input lands on the coalesce_window grid
/// (tests/vgpu/token_wheel_equivalence_test.cpp); off-grid inputs make the
/// wheel's deadlines round up, so a full cluster run's trace differs
/// between the two. The reference models none of admission, enforcement,
/// TQ or spatial grants (the no-op defaults below stand in for them).
class TokenBackendApi {
 public:
  virtual ~TokenBackendApi() = default;

  virtual const BackendConfig& config() const = 0;

  /// Makes a device known to the backend. Idempotent.
  virtual void RegisterDevice(const GpuUuid& device) = 0;

  /// Registers a container that will contend for `device`. The client
  /// pointer must outlive the registration.
  virtual Status RegisterContainer(const ContainerId& container,
                                   const GpuUuid& device,
                                   const ResourceSpec& spec,
                                   TokenClient* client) = 0;

  /// Removes a container; an outstanding token is reclaimed immediately.
  virtual Status UnregisterContainer(const ContainerId& container) = 0;

  /// Vertical resize: replaces a running container's compute spec. Takes
  /// effect at the next grant decision (the current hold is untouched);
  /// gpu_mem changes are ignored — allocations are already placed.
  virtual Status UpdateSpec(const ContainerId& container,
                            const ResourceSpec& spec) = 0;

  /// Frontend request: the container has kernels to run and needs the
  /// token. Idempotent while already queued or holding.
  virtual Status RequestToken(const ContainerId& container) = 0;

  /// Frontend release: the holder yields (early, with no more work, or
  /// after expiry once its in-flight kernel retired).
  virtual Status ReleaseToken(const ContainerId& container) = 0;

  /// Postpones the holder's quota expiry by `extra`. Used by the memory
  /// over-commitment extension: the time slice should cover kernel
  /// execution, not the page migration that precedes it — without the
  /// extension a migration longer than the quota would expire every grant
  /// before a single kernel runs (swap thrash with zero progress).
  virtual Status ExtendQuota(const ContainerId& container, Duration extra) = 0;

  /// Sliding-window usage rate of a container — the quantity Fig 6 plots
  /// per job ("the GPU utilization of individual container is measured by
  /// the allocated usage time from our vGPU device library").
  virtual double UsageOf(const ContainerId& container) const = 0;

  /// Current holder of a device's token (valid or in overrun), if any.
  /// Spatial backends with several concurrent holders report the first in
  /// ContainerId order — use ActiveHolders() for the count.
  virtual std::optional<ContainerId> HolderOf(const GpuUuid& device) const = 0;

  /// Tokens currently granted (valid, in overrun, or mid-exchange) on a
  /// device. Single-token backends derive this from HolderOf.
  virtual std::size_t ActiveHolders(const GpuUuid& device) const {
    return HolderOf(device).has_value() ? 1 : 0;
  }

  /// High-water mark of ActiveHolders over any device since construction.
  /// At most 1 for single-token backends, by construction.
  virtual std::size_t peak_active_holders() const {
    return grants() > 0 ? 1 : 0;
  }

  /// Number of containers queued for a device's token.
  virtual std::size_t QueueLength(const GpuUuid& device) const = 0;

  /// Total number of token grants performed (all devices) — the Fig 7
  /// exchange count.
  virtual std::uint64_t grants() const = 0;

  /// Fault injection: the daemon dies and restarts. All token/queue state
  /// and sliding windows are lost (state is in-memory in the real daemon
  /// too); every pending timer is invalidated. Containers registered at
  /// crash time are remembered as reattach candidates: after
  /// BackendConfig::restart_downtime the daemon re-registers those still
  /// alive (ones unregistered during the downtime — e.g. their node died —
  /// are skipped) and tells each via TokenClient::OnBackendRestart so the
  /// frontend re-requests. Devices stay registered (rediscovered on boot).
  virtual void Restart() = 0;

  virtual std::uint64_t restarts() const = 0;
  /// Containers re-registered across restarts (tokens re-acquired follow).
  virtual std::uint64_t reattached() const = 0;
  virtual bool down() const = 0;

  /// Per-container accounting, for observability and the isolation
  /// analyses: how often the container got the token, how long it held it
  /// in total, and how much of that was overrun past the quota (the
  /// non-preemptive-kernel effect bench_ablation_kernel_length measures).
  struct ContainerStats {
    std::uint64_t grants = 0;
    Duration held_total{0};
    Duration overrun_total{0};
  };
  virtual ContainerStats StatsOf(const ContainerId& container) const = 0;

  /// Largest number of closed hold intervals any registered container's
  /// usage window retains. Bounded by the usage window, not by run length
  /// — the soak test pins it across a 1x and an 8x horizon.
  virtual std::size_t max_retained_intervals() const = 0;

  /// Pending daemon timers (renewal/reeval/restart deadlines), however the
  /// implementation stores them. Zero when the daemon owes the engine
  /// nothing — the dangling-reeval regression test pins this.
  virtual std::size_t pending_timers() const = 0;

  // --- Isolation enforcement (no-op defaults: a backend without
  // --- enforcement, like the test-only reference, ignores tenants' misdeeds)

  /// Per-tenant violation ledger. Survives Restart() — a daemon crash
  /// forgives no violation (the ledger is rebuilt state, not token state).
  struct IsolationStats {
    std::uint64_t overstays = 0;
    std::uint64_t fenced_submits = 0;
    std::uint64_t memory_violations = 0;
    std::uint64_t spoofs = 0;
    bool clamped = false;
    bool evicted = false;
    std::uint64_t total() const {
      return overstays + fenced_submits + memory_violations + spoofs;
    }
  };

  /// Attributes one violation to `container` and escalates (clamp-down,
  /// eviction) per EnforcementConfig. Devices route their fenced-submit /
  /// memory-quota observations here via the cluster wiring.
  virtual void RecordViolation(const ContainerId& container,
                               ViolationKind kind) {
    (void)container;
    (void)kind;
  }
  virtual IsolationStats IsolationOf(const ContainerId& container) const {
    (void)container;
    return {};
  }
  /// The full ledger in ContainerId order, for metrics export.
  virtual std::vector<std::pair<ContainerId, IsolationStats>>
  IsolationLedger() const {
    return {};
  }
  virtual std::uint64_t violations_total() const { return 0; }
  virtual std::uint64_t clampdowns_total() const { return 0; }
  virtual std::uint64_t evictions_total() const { return 0; }

  // --- Memory oversubscription (no-op defaults: a backend without TQ,
  // --- like the test-only reference, is swap-blind) --------------------

  /// Frontend report of swap traffic incurred on a token hand-off (the
  /// bytes MakeResident migrated for this container). Feeds the nvshare-TQ
  /// thrash detector when BackendConfig::tq is enabled.
  virtual void ReportSwapBytes(const ContainerId& container,
                               std::uint64_t bytes) {
    (void)container;
    (void)bytes;
  }
  /// Times any device switched from sharing to TQ rotation.
  virtual std::uint64_t tq_engagements() const { return 0; }
  /// True while `device` is under TQ rotation.
  virtual bool TqEngaged(const GpuUuid& device) const {
    (void)device;
    return false;
  }

  // --- SLO admission control (no-op defaults: a backend without
  // --- admission, like the test-only reference, admits everything) ------

  /// Declares the p99 SLO of the service a container replica belongs to.
  /// Called by the serving frontend when a replica comes up; a no-op while
  /// BackendConfig::admission is disabled (no serving state is kept, so
  /// the disabled daemon is byte-identical to the pre-admission one). The
  /// daemon derives the container's latency cutoff here, once; re-declaring
  /// an SLO that moves it restarts the container's window. The state is
  /// dropped by UnregisterContainer and kept across Restart().
  virtual void SetServiceSlo(const ContainerId& container, Duration slo_p99) {
    (void)container;
    (void)slo_p99;
  }

  /// Per-request latency report for a container's admission window: the
  /// daemon counts the sample, and whether it falls below the container's
  /// SLO cutoff, in the current epoch. O(1) and allocation-free; a no-op
  /// while admission is disabled or before SetServiceSlo.
  virtual void ReportRequestLatency(const ContainerId& container, Time now,
                                    Duration latency) {
    (void)container;
    (void)now;
    (void)latency;
  }

  /// The admission decision for one new request bound for `container`.
  /// Always kAdmit while admission is disabled, during cold start
  /// (fewer than AdmissionConfig::min_samples in the window), or while
  /// the window's p99 stays under headroom * SLO — decided in O(1) from
  /// the windowed below-cutoff count, never by walking a histogram.
  virtual AdmissionDecision AdmitRequest(const ContainerId& container,
                                         Time now) {
    (void)container;
    (void)now;
    return AdmissionDecision::kAdmit;
  }

  virtual std::uint64_t admission_sheds() const { return 0; }
  virtual std::uint64_t admission_queued() const { return 0; }
  /// Containers the daemon keeps admission state for. Bounded by the live
  /// serving replicas — the serving soak test pins it.
  virtual std::size_t serving_states() const { return 0; }

  /// Frontend-sampler self-report of the container's usage rate. The
  /// untrusted input of the metrics-spoofing attack: without enforcement
  /// the daemon trusts it in grant decisions; with enforcement the daemon
  /// schedules on its own measured attribution and flags under-reports.
  virtual void ReportUsage(const ContainerId& container, double claimed) {
    (void)container;
    (void)claimed;
  }

  /// Invoked (asynchronously, once per tenant) when a tenant crosses the
  /// eviction threshold; DevMgr wires this to sharePod teardown.
  using EvictionFn =
      std::function<void(const ContainerId&, const std::string& reason)>;
  virtual void SetEvictionFn(EvictionFn fn) { (void)fn; }

  /// Resolves a device uuid to the simulated device so the backend can
  /// drive its token gate / memory quota. Wired by k8s::Cluster when
  /// enforcement is on.
  using DeviceResolver = std::function<gpu::GpuDevice*(const GpuUuid&)>;
  virtual void SetDeviceResolver(DeviceResolver fn) { (void)fn; }

  /// Observer of token lifecycle transitions. `what` is one of "grant",
  /// "expire", "release", "restart"; `when` is the quota expiry for grants
  /// and the transition time otherwise. The differential suite records
  /// these from twin cluster runs and demands byte-equal traces across
  /// device execution modes.
  using GrantTraceFn =
      std::function<void(const char* what, const ContainerId&, Time when)>;
  void SetGrantTraceFn(GrantTraceFn fn) { grant_trace_ = std::move(fn); }

 protected:
  void RecordGrantTrace(const char* what, const ContainerId& container,
                        Time when) {
    if (grant_trace_) grant_trace_(what, container, when);
  }

 private:
  GrantTraceFn grant_trace_;
};

/// Wheel-based backend daemon: every deadline the daemon owns (quota
/// expiries, grant hand-offs, throttle re-evaluations, restart downtime)
/// lives on one per-node sim::TimerWheel, so the whole daemon keeps at
/// most ONE engine event armed. Deadlines are quantized up to
/// BackendConfig::coalesce_window. With the default window (the GCD of the
/// default config durations) daemon behaviour matches the test-only
/// one-event-per-deadline reference tick for tick as long as requests,
/// releases and registrations arrive on the grid; a hand-off requested off
/// the grid completes at the next grid instant instead of exactly
/// exchange_latency later.
class TokenBackend : public TokenBackendApi {
 public:
  TokenBackend(sim::Simulation* sim, BackendConfig config = {});

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
  std::size_t ActiveHolders(const GpuUuid& device) const override;
  std::size_t peak_active_holders() const override { return peak_holders_; }
  std::size_t QueueLength(const GpuUuid& device) const override;
  std::uint64_t grants() const override { return grants_; }
  void Restart() override;
  std::uint64_t restarts() const override { return restarts_; }
  std::uint64_t reattached() const override { return reattached_; }
  bool down() const override { return down_; }
  ContainerStats StatsOf(const ContainerId& container) const override;
  std::size_t max_retained_intervals() const override;
  std::size_t pending_timers() const override { return wheel_.pending(); }

  void RecordViolation(const ContainerId& container,
                       ViolationKind kind) override;
  IsolationStats IsolationOf(const ContainerId& container) const override;
  std::vector<std::pair<ContainerId, IsolationStats>> IsolationLedger()
      const override;
  std::uint64_t violations_total() const override {
    return violations_total_;
  }
  std::uint64_t clampdowns_total() const override {
    return clampdowns_total_;
  }
  std::uint64_t evictions_total() const override { return evictions_total_; }
  void ReportSwapBytes(const ContainerId& container,
                       std::uint64_t bytes) override;
  std::uint64_t tq_engagements() const override { return tq_.engagements(); }
  bool TqEngaged(const GpuUuid& device) const override {
    return tq_.EngagedNow(device);
  }
  void SetServiceSlo(const ContainerId& container, Duration slo_p99) override;
  void ReportRequestLatency(const ContainerId& container, Time now,
                            Duration latency) override;
  AdmissionDecision AdmitRequest(const ContainerId& container,
                                 Time now) override;
  std::uint64_t admission_sheds() const override { return admission_sheds_; }
  std::uint64_t admission_queued() const override { return admission_queued_; }
  std::size_t serving_states() const override { return serving_.size(); }
  void ReportUsage(const ContainerId& container, double claimed) override;
  void SetEvictionFn(EvictionFn fn) override {
    eviction_fn_ = std::move(fn);
  }
  void SetDeviceResolver(DeviceResolver fn) override {
    device_resolver_ = std::move(fn);
  }

  /// The per-node wheel, for observability (cluster metrics export the
  /// coalescing ratio) and the chaos injector's re-arm check.
  const sim::TimerWheel& wheel() const { return wheel_; }

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
    /// Last self-reported usage (ReportUsage). Trusted in grant decisions
    /// only while enforcement is off — the spoofing hole.
    std::optional<double> claimed_usage;
    explicit ContainerState(Duration window) : usage(window) {}
  };

  /// One concurrent token in spatial mode: a slice-holder's grant state,
  /// the per-holder analogue of the temporal DeviceState fields.
  struct Hold {
    bool valid = false;      // false while mid-exchange or in overrun
    bool in_flight = false;  // exchange latency elapsing
    Time expiry{0};
    sim::TimerId expiry_timer = sim::kInvalidTimer;
    /// Enforcement only: overstay deadline at expiry + fence_grace.
    sim::TimerId fence_timer = sim::kInvalidTimer;
    int groups = 0;  // SM groups the hold occupies
  };

  struct DeviceState {
    std::deque<ContainerId> queue;
    std::optional<ContainerId> holder;
    bool token_valid = false;      // false while expired-but-not-released
    bool grant_in_flight = false;  // exchange latency elapsing
    Time expiry{0};                // current quota deadline
    sim::TimerId expiry_timer = sim::kInvalidTimer;
    sim::TimerId reeval_timer = sim::kInvalidTimer;
    /// Enforcement only: overstay deadline at expiry + fence_grace.
    sim::TimerId fence_timer = sim::kInvalidTimer;
    /// Spatial mode only: concurrent holds, ContainerId-sorted for
    /// deterministic iteration, plus the SM groups they pin.
    std::map<ContainerId, Hold> holds;
    int groups_held = 0;
  };

  void TryGrant(const GpuUuid& device);
  void GrantTo(DeviceState& dev, const GpuUuid& device_id,
               const ContainerId& container);
  /// Quota attached to the next grant on `device_id`: the TQ quantum while
  /// the thrash detector has the device in rotation, the normal quota
  /// otherwise. Identical to config_.quota whenever TQ is disabled.
  Duration GrantQuotaFor(const GpuUuid& device_id);
  void OnExpiry(const GpuUuid& device);
  void ScheduleReeval(DeviceState& dev, const GpuUuid& device_id);
  void CancelIdleReeval(DeviceState& dev);

  // Spatial-mode twins of the grant path. Dispatched from the same public
  // entry points when config_.spatial_enabled; the temporal code above is
  // untouched when it is off.
  int ClaimOf(const ContainerState& state) const;
  void TryGrantSpatial(const GpuUuid& device);
  void GrantSpatialTo(DeviceState& dev, const GpuUuid& device_id,
                      const ContainerId& container);
  void OnHoldExpiry(const GpuUuid& device, const ContainerId& container);

  // Enforcement internals. All no-ops / pass-throughs when
  // config_.enforcement.enabled is false.
  bool Enforcing() const { return config_.enforcement.enabled; }
  gpu::GpuDevice* ResolveDevice(const GpuUuid& device) const;
  bool IsClamped(const ContainerId& container) const;
  /// Usage rate grant decisions run on: the daemon's own measured
  /// attribution under enforcement, the (spoofable) self-report otherwise.
  double SchedulingUsage(const ContainerState& state, Time now) const;
  double EffectiveLimit(const ContainerId& container,
                        const ContainerState& state) const;
  double EffectiveRequest(const ContainerId& container,
                          const ContainerState& state) const;
  void OnFenceDeadline(const GpuUuid& device);
  void OnHoldFenceDeadline(const GpuUuid& device,
                           const ContainerId& container);

  /// What the daemon needs to re-admit a surviving frontend after a
  /// restart. Keyed by a sorted map so reattach order is deterministic.
  struct ReattachInfo {
    GpuUuid device;
    ResourceSpec spec;
    TokenClient* client = nullptr;
  };

  sim::Simulation* sim_;
  BackendConfig config_;
  /// Every daemon deadline rides this wheel; Restart() invalidates it
  /// wholesale (the generation stamps turn outstanding ids stale) and the
  /// downtime timer re-arms it for the new incarnation.
  sim::TimerWheel wheel_;
  std::unordered_map<GpuUuid, DeviceState> devices_;
  std::unordered_map<ContainerId, ContainerState> containers_;
  std::map<ContainerId, ReattachInfo> pending_reattach_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t grants_ = 0;
  /// Bumped by Restart(); in-flight grant hand-offs no-op across it.
  std::uint64_t epoch_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t reattached_ = 0;
  std::size_t peak_holders_ = 0;
  bool down_ = false;

  /// One admission epoch: latency samples reported, and how many of them
  /// fell below the container's cutoff.
  struct AdmissionEpoch {
    std::uint64_t samples = 0;
    std::uint64_t below_cutoff = 0;
    void Clear() noexcept {
      samples = 0;
      below_cutoff = 0;
    }
  };
  static constexpr std::uint64_t kNoCutoff = ~0ull;
  /// Lower edge of the first digest bucket whose representative fails the
  /// p99 test `ToSeconds(edge) < limit`, or kNoCutoff when none does.
  /// Edges grow with the index, so exactly the buckets before it pass, and
  /// a sample lands in one of them iff it is below the returned edge.
  static std::uint64_t AdmissionCutoff(double limit);
  /// Per-replica admission state: the SLO, its cutoff and two epochs of
  /// counts. The window's p99 (digest lower edge of the nearest-rank
  /// sample) is under headroom * slo exactly when at least
  /// NearestRank(0.99, n) of the n samples lie below `cutoff_us`, the
  /// lower edge of the first digest bucket whose edge is not under the
  /// limit (kNoCutoff when every edge is). Keyed separately from
  /// containers_ — like the violation ledger, it is rebuilt-state, not
  /// token-state, so a daemon Restart() keeps the latency history that
  /// would otherwise blind admission control exactly when a restart's
  /// backlog needs it; UnregisterContainer drops it with the container.
  /// Only populated while config_.admission.enabled (disabled daemons
  /// carry zero serving state).
  struct ServingState {
    Duration slo{0};
    std::uint64_t cutoff_us = 0;
    metrics::TwoEpochWindow<AdmissionEpoch> epochs;
    explicit ServingState(Duration window) : epochs(window) {}
  };
  std::unordered_map<ContainerId, ServingState> serving_;
  std::uint64_t admission_sheds_ = 0;
  std::uint64_t admission_queued_ = 0;

  /// Violation ledger, keyed separately from containers_ so Restart()
  /// (which clears container state) forgives nothing; sorted for
  /// deterministic metrics export.
  std::map<ContainerId, IsolationStats> violations_;
  std::uint64_t violations_total_ = 0;
  std::uint64_t clampdowns_total_ = 0;
  std::uint64_t evictions_total_ = 0;
  /// Monotonic token epoch admitted at the device gate on every grant.
  /// Never reset — a post-restart grant must out-rank every fenced epoch.
  std::uint64_t token_epoch_ = 0;
  /// nvshare-TQ thrash detector. Deliberately NOT cleared by Restart():
  /// like the violation ledger, engagement state is rebuilt-state, not
  /// token-state — a daemon crash must not bounce a thrashing device back
  /// into swap-storm sharing.
  baselines::TqController tq_;
  EvictionFn eviction_fn_;
  DeviceResolver device_resolver_;
};

}  // namespace ks::vgpu
