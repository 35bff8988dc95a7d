#pragma once

#include "k8s/cluster.hpp"

namespace ks::oracles {

/// Cluster parts whose GPUs are the per-kernel gpu::GpuDeviceReference
/// oracle; token daemons stay production.
k8s::ClusterParts ReferenceGpus();

/// Cluster parts whose per-node token daemons are the
/// one-event-per-deadline vgpu::TokenBackendReference oracle; GPUs stay
/// production. The reference models none of admission, enforcement, TQ or
/// spatial grants, so building one for a BackendConfig that enables any of
/// them aborts the process instead of silently running a smaller model.
k8s::ClusterParts ReferenceTokenBackends();

}  // namespace ks::oracles
