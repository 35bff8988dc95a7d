#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpu/device.hpp"

namespace ks::gpu {

/// The original one-event-per-kernel processor-sharing engine, kept as the
/// differential oracle for the virtual-time + fused-stream GpuDevice (the
/// same pattern as vgpu::TokenBackendReference). Each Progress() rescales
/// every in-flight kernel's remaining work, and SubmitRepeat always chains
/// units one at a time — one engine event per kernel. A test-only oracle:
/// tests and benches inject it into a k8s::Cluster through
/// oracles::ReferenceGpus() (tests/oracles/cluster_parts.hpp).
///
/// Observable behavior — kernel ids, start/finish traces, callback order,
/// utilization intervals, memory ledger — must stay byte-equal to the
/// fused engine; the `differential` test suite pins this across seeded
/// full-cluster runs.
class GpuDeviceReference final : public GpuDevice {
 public:
  GpuDeviceReference(sim::Simulation* sim, GpuUuid uuid, GpuSpec spec = {});

  KernelId Submit(const ContainerId& owner, const KernelDesc& desc,
                  std::function<void()> on_complete) override;
  RepeatId SubmitRepeat(const ContainerId& owner, const KernelDesc& desc,
                        int count, UnitDoneFn on_unit) override;
  std::size_t CancelRepeatTail(RepeatId id) override;
  std::size_t RepeatUnitsFinished(RepeatId id) const override;
  void DetachOwner(const ContainerId& owner) override;
  std::size_t active_kernels() const override;
  std::uint64_t completed_kernels() const override;

 protected:
  bool EngineBusy() const override;

 private:
  struct Running {
    KernelId id;
    ContainerId owner;
    double bandwidth_demand;
    Duration remaining{0};
    std::string name;
    Time start{0};
    UnitDoneFn on_done;
    RepeatId chain = 0;
  };
  struct ChainTail {
    ContainerId owner;
    KernelDesc desc;
    int remaining = 0;
    std::size_t finished = 0;
    UnitDoneFn on_unit;
    bool in_flight = false;
  };

  double CurrentRatePerKernel() const;
  void Progress();
  void Reschedule();
  void OnCompletionEvent();
  void AdvanceChain(RepeatId id);
  void StartChainUnit(RepeatId id);

  std::vector<Running> running_;
  Time last_update_{0};
  sim::EventId completion_event_ = sim::kInvalidEvent;
  RepeatId next_repeat_ = 1;
  std::unordered_map<RepeatId, ChainTail> chains_;
};

}  // namespace ks::gpu
