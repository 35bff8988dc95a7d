// The oracle seam: k8s::ClusterParts builds the production GPU and token
// daemon when empty, and the oracles when asked. The reference token
// backend models none of admission, enforcement, TQ or spatial grants, so
// oracles::ReferenceTokenBackends() must refuse a config that turns any of
// them on — a run that silently drops one of those features would compare
// against a smaller model than the one it claims to check.

#include <gtest/gtest.h>

#include "k8s/cluster.hpp"
#include "oracles/cluster_parts.hpp"
#include "oracles/device_reference.hpp"
#include "oracles/token_backend_reference.hpp"

namespace ks::oracles {
namespace {

k8s::ClusterConfig SmallCluster() {
  k8s::ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 2;
  return config;
}

TEST(ClusterParts, EmptyPartsBuildTheProductionEngines) {
  k8s::Cluster cluster(SmallCluster());
  k8s::Cluster::NodeHandle& node = cluster.node(0);
  EXPECT_NE(dynamic_cast<vgpu::TokenBackend*>(node.token_backend.get()),
            nullptr);
  for (const auto& gpu : node.gpus) {
    EXPECT_EQ(dynamic_cast<gpu::GpuDeviceReference*>(gpu.get()), nullptr);
  }
  EXPECT_NE(cluster.tick_hub(), nullptr);
}

TEST(ClusterParts, OraclesAreBuiltWhenInjected) {
  k8s::Cluster gpus(SmallCluster(), ReferenceGpus());
  for (const auto& gpu : gpus.node(0).gpus) {
    EXPECT_NE(dynamic_cast<gpu::GpuDeviceReference*>(gpu.get()), nullptr);
  }
  EXPECT_NE(dynamic_cast<vgpu::TokenBackend*>(
                gpus.node(0).token_backend.get()),
            nullptr);

  k8s::Cluster backends(SmallCluster(), ReferenceTokenBackends());
  EXPECT_NE(dynamic_cast<vgpu::TokenBackendReference*>(
                backends.node(0).token_backend.get()),
            nullptr);
}

TEST(ReferenceTokenBackendsDeathTest, RefusesAdmission) {
  k8s::ClusterConfig config = SmallCluster();
  config.backend.admission.enabled = true;
  EXPECT_DEATH(k8s::Cluster cluster(config, ReferenceTokenBackends()),
               "does not model admission");
}

TEST(ReferenceTokenBackendsDeathTest, RefusesEnforcement) {
  k8s::ClusterConfig config = SmallCluster();
  config.backend.enforcement.enabled = true;
  EXPECT_DEATH(k8s::Cluster cluster(config, ReferenceTokenBackends()),
               "does not model enforcement");
}

TEST(ReferenceTokenBackendsDeathTest, RefusesTq) {
  k8s::ClusterConfig config = SmallCluster();
  config.backend.tq.enabled = true;
  EXPECT_DEATH(k8s::Cluster cluster(config, ReferenceTokenBackends()),
               "does not model tq");
}

TEST(ReferenceTokenBackendsDeathTest, RefusesSpatial) {
  // Spatial sharing reaches the daemon through ClusterConfig::spatial, which
  // the cluster copies into the backend config's spatial_enabled.
  k8s::ClusterConfig config = SmallCluster();
  config.spatial.enabled = true;
  EXPECT_DEATH(k8s::Cluster cluster(config, ReferenceTokenBackends()),
               "does not model spatial_enabled");
}

}  // namespace
}  // namespace ks::oracles
