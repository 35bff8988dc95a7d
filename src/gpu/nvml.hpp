#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "gpu/device.hpp"
#include "sim/simulation.hpp"
#include "sim/tick_hub.hpp"

namespace ks::gpu {

/// One utilization sample, in the style of nvmlDeviceGetUtilizationRates.
struct NvmlSample {
  Time at{0};
  double gpu_util = 0.0;   // fraction of the sample period with a kernel active
  double mem_used = 0.0;   // fraction of device memory allocated
};

/// Periodic utilization monitor modeled after the NVML polling loop the
/// paper uses to produce Fig 5 and Fig 9 ("the overall utilization of a GPU
/// is measured by the GPU usage value reported by the Nvidia NVML library").
///
/// The monitor samples each registered device every `period`, recording the
/// busy fraction of the elapsed period. Start() subscribes the poll to the
/// shared sampler tick (`hub`), which coalesces every instrument on its
/// grid into one engine event; Stop() unsubscribes it.
class NvmlMonitor {
 public:
  explicit NvmlMonitor(sim::TickHub* hub, Duration period = Seconds(1.0));

  void Register(GpuDevice* device);

  void Start();
  void Stop();
  bool running() const { return running_; }

  const std::vector<NvmlSample>& SamplesFor(const GpuUuid& uuid) const;

  /// Mean gpu_util across all samples of one device.
  double AverageUtilization(const GpuUuid& uuid) const;

  /// Mean gpu_util at sample index `i` across devices that were busy at
  /// least once by then ("active" devices, Fig 9's numerator).
  double AverageUtilizationAcrossActive(std::size_t i) const;

 private:
  void Tick();

  sim::TickHub* hub_;
  sim::Simulation* sim_;
  Duration period_;
  bool running_ = false;
  sim::TickHub::SubId sub_ = 0;
  Time last_tick_{0};

  std::vector<GpuDevice*> devices_;
  std::unordered_map<GpuUuid, std::vector<NvmlSample>> samples_;
  std::unordered_map<GpuUuid, Duration> busy_at_last_tick_;
};

}  // namespace ks::gpu
