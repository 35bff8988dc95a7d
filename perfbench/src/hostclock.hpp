#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// CPU seconds this thread has run. Time spent waiting for a core (other
/// processes, or the hypervisor's steal time where the kernel accounts it)
/// is not counted.
double ThreadCpuSeconds();

/// A yardstick for the host's current speed. The benchmark runs on shared
/// hosts whose cores run the same work up to 2x slower at some times than
/// at others, within seconds and between runs, and CPU time does not
/// remove that. So the benchmark runs one fixed batch of work shaped like
/// an event loop (binary heap, hash map, random reads from a 16 KB table)
/// after every simulated slice and around every set-up window, and reports
/// its host timings scaled by kNominalS over the batch's CPU time nearby.
/// The batch fits in the core's L1 cache: contention for the shared caches
/// and memory slowed a larger batch by 20% and the simulator by 4%. The
/// batch is the benchmark's own code: no change to the simulator can
/// change it.
class RefKernel {
 public:
  /// About the CPU seconds one batch took in the fastest periods of the
  /// 4-vCPU VM (Intel Xeon, 2.1 GHz) on which the baseline was measured.
  /// Scaled host timings read as CPU seconds on the VM at that speed.
  static constexpr double kNominalS = 120e-6;

  RefKernel();

  /// Runs one batch; returns the CPU seconds it took.
  double Run();

 private:
  // About 30 KB in all, so the batch stays in the core's L1 cache.
  static constexpr std::uint32_t kTableWords = 1u << 11;
  static constexpr std::uint32_t kKeys = 1u << 8;
  static constexpr std::uint32_t kEvents = 256;
  static constexpr int kSteps = 2000;

  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<std::uint64_t> table_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::unordered_map<std::uint32_t, std::uint64_t> map_;
  std::uint64_t rng_ = 88172645463325252ULL;
};

}  // namespace perfbench
