// Differential tests for isolation enforcement under adversarial tenants:
// seeded full-cluster KubeShare runs with the chaos injector turning a
// running tenant hostile (token overstay, revocation-ignoring kernel
// floods, memory-limit probing, metrics spoofing) are executed twice —
// fused GpuDevice vs GpuDeviceReference — and must produce byte-equal
// kernel traces, token traces, and isolation-enforcement counters. The
// fencing gate, quota clamp-down and eviction ladder are part of the
// observable surface: an attacker must not be able to change what the
// system does by racing the engine, and the enforcement response itself
// must be deterministic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "gpu/device.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/isolation.hpp"
#include "oracles/cluster_parts.hpp"
#include "workload/generator.hpp"
#include "workload/host.hpp"

namespace ks::gpu {
namespace {

struct FenceTraces {
  std::map<std::string, std::vector<std::string>> kernels;
  std::map<std::string, std::vector<std::string>> tokens;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::uint64_t total_events = 0;
  // Isolation-enforcement surface (summed over nodes / devices).
  metrics::IsolationMetrics isolation;
  std::uint64_t attack_ticks = 0;
  std::uint64_t tenants_turned = 0;
};

FenceTraces RunHostileCluster(const k8s::ClusterParts& parts,
                              std::uint64_t seed,
                              const std::vector<chaos::FaultKind>& attacks,
                              bool enforcement) {
  auto out = std::make_unique<FenceTraces>();
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = 3;
    ccfg.gpus_per_node = 2;
    ccfg.backend.enforcement.enabled = enforcement;
    k8s::Cluster cluster(ccfg, parts);
    FenceTraces* sink = out.get();
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      k8s::Cluster::NodeHandle& node = cluster.node(n);
      for (auto& dev : node.gpus) {
        const std::string uuid = dev->uuid().value();
        sink->kernels[uuid];
        dev->SetKernelTraceFn([sink, uuid](const KernelTraceEvent& e) {
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

    kubeshare::KubeShare kubeshare(&cluster);
    workload::WorkloadHost host(&cluster);
    workload::WorkloadConfig wcfg;
    wcfg.total_jobs = 12;
    wcfg.mean_interarrival = Seconds(1.0);
    wcfg.demand_mean = 0.4;
    wcfg.demand_stddev = 0.15;
    wcfg.job_duration = Seconds(6);
    wcfg.seed = seed;
    wcfg.job_kind = workload::WorkloadConfig::JobKind::kInference;
    workload::WorkloadDriver driver(
        &cluster, &host, workload::WorkloadDriver::Mode::kKubeShare,
        &kubeshare, wcfg);

    chaos::FaultPlan plan;
    Time at = Seconds(6);
    for (const chaos::FaultKind kind : attacks) {
      chaos::Fault f;
      f.at = at;
      f.kind = kind;
      f.duration = Seconds(8);  // hostile window; "" pod = first running job
      plan.faults.push_back(f);
      at = at + Millis(500);  // stagger so multiple attacks compose
    }
    chaos::FaultInjector injector(&cluster, plan);
    injector.SetKubeShare(&kubeshare);
    injector.SetWorkloadHost(&host);

    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());
    EXPECT_TRUE(injector.Arm().ok());
    driver.Start();
    cluster.sim().RunUntil(Seconds(35));

    sink->completed = host.completed();
    sink->failed = host.failed();
    sink->total_events = cluster.sim().lifetime_events();
    sink->isolation = metrics::CollectIsolationMetrics(cluster, &kubeshare);
    const chaos::ChaosStats& stats = injector.stats();
    sink->tenants_turned = stats.tenant_overstays + stats.tenant_floods +
                           stats.tenant_probes + stats.tenant_spoofs;
    for (const std::string& job : host.RunningKubeShareJobs()) {
      if (const vgpu::FrontendHook* hook = host.RunningHook(job)) {
        sink->attack_ticks += hook->attack_ticks();
      }
    }
  }
  return std::move(*out);
}

void ExpectLinesEqual(const std::vector<std::string>& fused,
                      const std::vector<std::string>& reference,
                      const std::string& what) {
  const std::size_t n = std::min(fused.size(), reference.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (fused[i] == reference[i]) continue;
    std::string context;
    for (std::size_t j = i >= 3 ? i - 3 : 0; j < std::min(n, i + 3); ++j) {
      context += "\n  [" + std::to_string(j) + "] fused:     " + fused[j] +
                 "\n  [" + std::to_string(j) + "] reference: " + reference[j];
    }
    ADD_FAILURE() << what << " diverged at line " << i << " of "
                  << fused.size() << "/" << reference.size() << ":" << context;
    return;
  }
  if (fused.size() != reference.size()) {
    const auto& longer = fused.size() > reference.size() ? fused : reference;
    ADD_FAILURE() << what << " lengths differ (fused " << fused.size()
                  << ", reference " << reference.size() << "); first extra: "
                  << longer[n];
  }
}

/// Sorts runs of same-timestamp lines. Clamp-down mid-run shifts expiry
/// timing enough that one daemon can see an expiry of one container and a
/// release of another in the same microsecond; the two engines break that
/// FIFO tie differently while agreeing on every downstream grant decision
/// and kernel trace — the transitions commute. Per-container order is
/// unaffected: a container's same-time pairs sort identically both sides.
std::vector<std::string> CanonicalizeTokenTrace(
    std::vector<std::string> lines) {
  auto time_of = [](const std::string& line) {
    const std::size_t pos = line.rfind(' ');
    return line.substr(pos == std::string::npos ? 0 : pos + 1);
  };
  std::size_t start = 0;
  while (start < lines.size()) {
    std::size_t end = start + 1;
    while (end < lines.size() &&
           time_of(lines[end]) == time_of(lines[start])) {
      ++end;
    }
    std::sort(lines.begin() + start, lines.begin() + end);
    start = end;
  }
  return lines;
}

void ExpectHostileTracesEqual(const FenceTraces& fused,
                              const FenceTraces& reference,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(fused.completed, reference.completed);
  EXPECT_EQ(fused.failed, reference.failed);
  EXPECT_EQ(fused.tenants_turned, reference.tenants_turned);
  EXPECT_EQ(fused.attack_ticks, reference.attack_ticks);

  ASSERT_EQ(fused.kernels.size(), reference.kernels.size());
  for (const auto& [uuid, lines] : fused.kernels) {
    auto it = reference.kernels.find(uuid);
    ASSERT_NE(it, reference.kernels.end()) << uuid;
    ExpectLinesEqual(lines, it->second, "kernel trace on " + uuid);
  }
  ASSERT_EQ(fused.tokens.size(), reference.tokens.size());
  for (const auto& [node, lines] : fused.tokens) {
    auto it = reference.tokens.find(node);
    ASSERT_NE(it, reference.tokens.end()) << node;
    ExpectLinesEqual(CanonicalizeTokenTrace(lines),
                     CanonicalizeTokenTrace(it->second),
                     "token trace on " + node);
  }

  // The enforcement response is part of the differential surface: both
  // engines must attribute the same violations, clamp the same tenants,
  // reject the same submissions.
  const metrics::IsolationMetrics& a = fused.isolation;
  const metrics::IsolationMetrics& b = reference.isolation;
  EXPECT_EQ(a.violations_total, b.violations_total);
  EXPECT_EQ(a.clampdowns_total, b.clampdowns_total);
  EXPECT_EQ(a.evictions_total, b.evictions_total);
  EXPECT_EQ(a.overstays, b.overstays);
  EXPECT_EQ(a.fenced_submits, b.fenced_submits);
  EXPECT_EQ(a.memory_violations, b.memory_violations);
  EXPECT_EQ(a.metrics_spoofs, b.metrics_spoofs);
  EXPECT_EQ(a.fenced_kernel_rejections, b.fenced_kernel_rejections);
  EXPECT_EQ(a.memory_quota_rejections, b.memory_quota_rejections);
  EXPECT_EQ(a.tenants_evicted, b.tenants_evicted);
}

FenceTraces CompareHostileModes(std::uint64_t seed,
                                const std::vector<chaos::FaultKind>& attacks,
                                const std::string& label) {
  const FenceTraces fused =
      RunHostileCluster({}, seed, attacks, true);
  const FenceTraces reference =
      RunHostileCluster(oracles::ReferenceGpus(), seed, attacks, true);
  ExpectHostileTracesEqual(fused, reference, label);
  EXPECT_LE(fused.total_events, reference.total_events) << label;
  // The attack must actually have run — a plan that fizzled (no running
  // job to turn hostile) would make the equality above vacuous.
  EXPECT_GT(fused.tenants_turned, 0u) << label;
  return fused;
}

TEST(FencingEquivalence, OverstayTracesByteEqual) {
  for (std::uint64_t seed : {51u, 52u}) {
    const FenceTraces fused = CompareHostileModes(
        seed, {chaos::FaultKind::kTenantTokenOverstay},
        "overstay seed " + std::to_string(seed));
    // The fence deadline must have reclaimed the overstayed grant.
    EXPECT_GT(fused.isolation.overstays, 0u);
  }
}

TEST(FencingEquivalence, KernelFloodTracesByteEqual) {
  for (std::uint64_t seed : {53u, 54u}) {
    CompareHostileModes(seed, {chaos::FaultKind::kTenantKernelFlood},
                        "flood seed " + std::to_string(seed));
  }
}

TEST(FencingEquivalence, MemoryProbeAndSpoofTracesByteEqual) {
  for (std::uint64_t seed : {55u, 56u}) {
    CompareHostileModes(seed,
                        {chaos::FaultKind::kTenantMemoryProbe,
                         chaos::FaultKind::kTenantMetricsSpoof},
                        "probe+spoof seed " + std::to_string(seed));
  }
}

TEST(FencingEquivalence, ComposedAttackTracesByteEqual) {
  const FenceTraces fused = CompareHostileModes(
      57u,
      {chaos::FaultKind::kTenantTokenOverstay,
       chaos::FaultKind::kTenantKernelFlood,
       chaos::FaultKind::kTenantMemoryProbe,
       chaos::FaultKind::kTenantMetricsSpoof},
      "composed attack");
  EXPECT_GT(fused.isolation.violations_total, 0u);
}

TEST(FencingEquivalence, RepeatRunsAreByteEqual) {
  // Determinism within one engine: the same hostile run twice must be
  // byte-equal — the adversarial schedule may not depend on anything but
  // (seed, plan).
  const std::vector<chaos::FaultKind> attacks{
      chaos::FaultKind::kTenantTokenOverstay,
      chaos::FaultKind::kTenantKernelFlood};
  const FenceTraces first =
      RunHostileCluster({}, 58u, attacks, true);
  const FenceTraces second =
      RunHostileCluster({}, 58u, attacks, true);
  ExpectHostileTracesEqual(first, second, "repeat fused run");
  EXPECT_EQ(first.total_events, second.total_events);
}

}  // namespace
}  // namespace ks::gpu
