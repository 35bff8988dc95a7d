// Differential tests for the spatial sharing subsystem.
//
// Two oracle pairs are pinned here:
//   1. Spatial mode enabled but every sharePod claiming the whole GPU
//      (slice_groups = 0) must produce cluster traces byte-equal to the
//      temporal-only system (spatial disabled) — the concurrent-token
//      grant loop, with full-GPU claims, must reduce exactly to the
//      single-token schedule, including grant order and expiry times.
//   2. With real slice claims, the fused virtual-time device engine and
//      the per-kernel reference engine must stay byte-equal: the slice
//      lane lives in the GpuDevice base class and both engines route
//      sliced kernels through it verbatim.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpu/device.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "oracles/cluster_parts.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::vgpu {
namespace {

constexpr int kSmGroups = 7;

struct SpatialTraces {
  std::map<std::string, std::vector<std::string>> kernels;  // by device uuid
  std::map<std::string, std::vector<std::string>> tokens;   // by node
  std::string pool_dump;
  std::size_t completed = 0;
  std::size_t failed = 0;
};

struct RunOptions {
  bool spatial = false;
  /// Claim widths per tenant index; 0 = whole GPU. Resized cyclically.
  std::vector<int> claims;
  /// Run on the per-kernel reference device instead of the fused one.
  bool reference_gpus = false;
  std::uint64_t seed = 1;
  int tenants = 6;
};

SpatialTraces RunSpatialCluster(const RunOptions& opt) {
  // Heap-owned collector, as in the device equivalence suite: trace
  // callbacks keep firing during cluster teardown.
  auto out = std::make_unique<SpatialTraces>();
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = 2;
    ccfg.gpus_per_node = 2;
    ccfg.spatial.enabled = opt.spatial;
    ccfg.spatial.sm_groups = kSmGroups;
    k8s::Cluster cluster(ccfg, opt.reference_gpus ? oracles::ReferenceGpus()
                                                  : k8s::ClusterParts{});
    kubeshare::KubeShare kubeshare(&cluster);
    workload::WorkloadHost host(&cluster);

    SpatialTraces* sink = out.get();
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      k8s::Cluster::NodeHandle& node = cluster.node(n);
      for (auto& dev : node.gpus) {
        const std::string uuid = dev->uuid().value();
        sink->kernels[uuid];
        dev->SetKernelTraceFn([sink, uuid](const gpu::KernelTraceEvent& e) {
          sink->kernels[uuid].push_back(
              std::to_string(e.id) + " " + e.owner.value() + " " + e.name +
              " " + std::to_string(e.start.count()) + " " +
              std::to_string(e.finish.count()));
        });
      }
      const std::string node_name = node.name;
      sink->tokens[node_name];
      node.token_backend->SetGrantTraceFn(
          [sink, node_name](const char* what, const ContainerId& container,
                            Time when) {
            sink->tokens[node_name].push_back(
                std::string(what) + " " + container.value() + " " +
                std::to_string(when.count()));
          });
    }

    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());

    Rng rng(opt.seed);
    for (int i = 0; i < opt.tenants; ++i) {
      const int claim =
          opt.claims.empty()
              ? 0
              : opt.claims[static_cast<std::size_t>(i) % opt.claims.size()];
      const std::string name = "tenant-" + std::to_string(i);
      workload::TrainingSpec spec;
      spec.steps = static_cast<int>(rng.UniformInt(120, 200));
      spec.step_kernel = Millis(rng.UniformInt(5, 15));
      spec.model_bytes = 1ull << 30;
      spec.sm_demand =
          claim > 0 ? static_cast<double>(claim) / kSmGroups : 1.0;
      host.ExpectJob(name, [spec] {
        return std::make_unique<workload::TrainingJob>(spec);
      });
      kubeshare::SharePod sp;
      sp.meta.name = name;
      sp.spec.gpu.gpu_request = 0.05 * static_cast<double>(
                                            rng.UniformInt(2, 8));
      sp.spec.gpu.gpu_limit = 1.0;
      sp.spec.gpu.gpu_mem = 0.1;
      sp.spec.gpu.slice_groups = claim;
      EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
    }

    cluster.sim().RunUntil(Seconds(60));
    sink->pool_dump = kubeshare.pool().DebugString();
    sink->completed = host.completed();
    sink->failed = host.failed();
    EXPECT_TRUE(kubeshare.pool().CheckIndexInvariants().ok());
  }
  return std::move(*out);
}

void ExpectLinesEqual(const std::vector<std::string>& a,
                      const std::vector<std::string>& b,
                      const std::string& what) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    ADD_FAILURE() << what << " diverged at line " << i << ": \"" << a[i]
                  << "\" vs \"" << b[i] << "\"";
    return;
  }
  EXPECT_EQ(a.size(), b.size()) << what << " lengths differ";
}

void ExpectTracesEqual(const SpatialTraces& a, const SpatialTraces& b,
                       const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  ASSERT_EQ(a.kernels.size(), b.kernels.size());
  for (const auto& [uuid, lines] : a.kernels) {
    auto it = b.kernels.find(uuid);
    ASSERT_NE(it, b.kernels.end()) << uuid;
    ExpectLinesEqual(lines, it->second, "kernel trace on " + uuid);
  }
  ASSERT_EQ(a.tokens.size(), b.tokens.size());
  for (const auto& [node, lines] : a.tokens) {
    auto it = b.tokens.find(node);
    ASSERT_NE(it, b.tokens.end()) << node;
    ExpectLinesEqual(lines, it->second, "token trace on " + node);
  }
}

TEST(SpatialEquivalence, FullGpuClaimsByteEqualToTemporalPath) {
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    RunOptions spatial;
    spatial.spatial = true;
    spatial.claims = {0};  // every tenant claims the whole device
    spatial.seed = seed;
    RunOptions temporal = spatial;
    temporal.spatial = false;
    const SpatialTraces a = RunSpatialCluster(spatial);
    const SpatialTraces b = RunSpatialCluster(temporal);
    ExpectTracesEqual(a, b, "full-gpu-claims seed " + std::to_string(seed));
    EXPECT_GT(a.completed, 0u);
  }
}

TEST(SpatialEquivalence, SlicedClusterFusedMatchesReferenceEngine) {
  for (const std::uint64_t seed : {71u, 72u, 73u}) {
    RunOptions fused;
    fused.spatial = true;
    fused.claims = {1, 2, 1, 3};
    fused.seed = seed;
    RunOptions reference = fused;
    reference.reference_gpus = true;
    const SpatialTraces a = RunSpatialCluster(fused);
    const SpatialTraces b = RunSpatialCluster(reference);
    ExpectTracesEqual(a, b, "sliced-engines seed " + std::to_string(seed));
    EXPECT_EQ(a.pool_dump, b.pool_dump);
    EXPECT_GT(a.completed, 0u);
  }
}

TEST(SpatialEquivalence, MixedClaimsRunIsDeterministic) {
  RunOptions opt;
  opt.spatial = true;
  opt.claims = {1, 0, 2, 4};
  opt.seed = 81;
  const SpatialTraces a = RunSpatialCluster(opt);
  const SpatialTraces b = RunSpatialCluster(opt);
  ExpectTracesEqual(a, b, "determinism");
  EXPECT_EQ(a.pool_dump, b.pool_dump);
}

}  // namespace
}  // namespace ks::vgpu
