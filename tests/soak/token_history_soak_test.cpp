// Long-horizon soak: the same seeded contended cluster is run for 1x and
// 8x a simulated horizon, under both token-backend implementations. Per-
// container state must be bounded by the usage window, not by run length,
// and the engine work must grow linearly with the horizon:
//   - the largest per-container retained hold-interval count is the same at
//     the end of both runs;
//   - the 8x run executes at most 8.5x the 1x run's engine events (a
//     deterministic proxy for "no super-linear term").
// Run with `ctest -L soak`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "kubeshare/kubeshare.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks {
namespace {

struct SoakResult {
  std::size_t max_retained = 0;
  std::uint64_t events = 0;
  std::uint64_t grants = 0;
  std::size_t running = 0;
};

/// 2 nodes x 2 GPUs, 12 fractional training sharePods that never finish
/// within the horizon, so every GPU stays contended by 3 token holders.
constexpr int kTenants = 12;

SoakResult RunSoak(vgpu::TokenTimerMode mode, std::uint64_t seed,
                   Duration horizon) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.gpus_per_node = 2;
  ccfg.token_timers = mode;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());

  // One seeded spec for every tenant: three of them fit per GPU, so each
  // GPU's steady state is a fixed three-way token rotation.
  Rng rng(seed);
  vgpu::ResourceSpec gpu;
  gpu.gpu_request = rng.Uniform(0.26, 0.33);
  gpu.gpu_limit = gpu.gpu_request + rng.Uniform(0.1, 0.5);
  gpu.gpu_mem = 0.2;
  for (int i = 0; i < kTenants; ++i) {
    const std::string name = "soak-" + std::to_string(i);
    kubeshare::SharePod sp;
    sp.meta.name = name;
    sp.spec.gpu = gpu;
    workload::TrainingSpec spec;
    spec.steps = 100'000'000;
    spec.step_kernel = Millis(10);
    spec.model_bytes = 1ull << 30;
    host.ExpectJob(name, [spec] {
      return std::make_unique<workload::TrainingJob>(spec);
    });
    EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
  }
  cluster.sim().RunUntil(horizon);

  SoakResult r;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    const vgpu::TokenBackendApi& backend = *cluster.node(n).token_backend;
    r.max_retained =
        std::max(r.max_retained, backend.max_retained_intervals());
    r.grants += backend.grants();
  }
  r.events = cluster.sim().executed();
  r.running = host.started() - host.completed() - host.failed();
  return r;
}

struct SoakParam {
  vgpu::TokenTimerMode mode;
  std::uint64_t seed;
};

class TokenHistorySoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(TokenHistorySoak, StateBoundedAndEventsLinearOverEightfoldHorizon) {
  const Duration horizon = Seconds(120);
  const SoakResult one = RunSoak(GetParam().mode, GetParam().seed, horizon);
  const SoakResult eight =
      RunSoak(GetParam().mode, GetParam().seed, horizon * 8);

  // Every job is still running, so the long run really is 8x the work.
  EXPECT_EQ(one.running, static_cast<std::size_t>(kTenants));
  EXPECT_EQ(eight.running, static_cast<std::size_t>(kTenants));
  EXPECT_GT(eight.grants, 7 * one.grants);

  EXPECT_GT(one.max_retained, 0u);
  EXPECT_EQ(eight.max_retained, one.max_retained);
  EXPECT_LE(eight.events * 2, one.events * 17)
      << "1x: " << one.events << " events, 8x: " << eight.events;
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TokenHistorySoak,
    ::testing::Values(SoakParam{vgpu::TokenTimerMode::kWheel, 11},
                      SoakParam{vgpu::TokenTimerMode::kWheel, 23},
                      SoakParam{vgpu::TokenTimerMode::kReference, 11},
                      SoakParam{vgpu::TokenTimerMode::kReference, 23}),
    [](const ::testing::TestParamInfo<SoakParam>& info) {
      return std::string(info.param.mode == vgpu::TokenTimerMode::kWheel
                             ? "Wheel"
                             : "Reference") +
             "Seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace ks
