#include "oracles/cluster_parts.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "oracles/device_reference.hpp"
#include "oracles/token_backend_reference.hpp"

namespace ks::oracles {

namespace {

[[noreturn]] void RefuseFeature(const char* feature) {
  std::fprintf(stderr,
               "TokenBackendReference does not model %s; it cannot stand "
               "in for TokenBackend on this config\n",
               feature);
  std::abort();
}

}  // namespace

k8s::ClusterParts ReferenceGpus() {
  k8s::ClusterParts parts;
  parts.make_gpu = [](sim::Simulation* sim, const GpuUuid& uuid,
                      const gpu::GpuSpec& spec) {
    return std::make_unique<gpu::GpuDeviceReference>(sim, uuid, spec);
  };
  return parts;
}

k8s::ClusterParts ReferenceTokenBackends() {
  k8s::ClusterParts parts;
  parts.make_token_backend = [](sim::Simulation* sim,
                                const vgpu::BackendConfig& cfg) {
    if (cfg.admission.enabled) RefuseFeature("admission");
    if (cfg.enforcement.enabled) RefuseFeature("enforcement");
    if (cfg.tq.enabled) RefuseFeature("tq");
    if (cfg.spatial_enabled) RefuseFeature("spatial_enabled");
    return std::make_unique<vgpu::TokenBackendReference>(sim, cfg);
  };
  return parts;
}

}  // namespace ks::oracles
