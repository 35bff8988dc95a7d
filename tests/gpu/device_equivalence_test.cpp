// Differential tests for the virtual-time fused device engine: seeded
// full-cluster KubeShare runs executed twice — once on the fused GpuDevice,
// once on the per-kernel GpuDeviceReference oracle — must produce byte-equal
// kernel start/finish traces, NVML utilization series, and token
// grant/violation traces, including across kTokenDaemonRestart and
// kDevMgrCrash chaos faults. The fused engine is only allowed to change how
// many engine events the run costs, never what the run observably does.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "gpu/device.hpp"
#include "gpu/nvml.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "oracles/cluster_parts.hpp"
#include "workload/generator.hpp"
#include "workload/host.hpp"

namespace ks::gpu {
namespace {

struct RunTraces {
  /// Per-device kernel lifetimes, one formatted line per retirement, in
  /// retirement order.
  std::map<std::string, std::vector<std::string>> kernels;
  /// Per-device NVML samples (timestamp + bit-exact utilization values).
  std::map<std::string, std::vector<NvmlSample>> nvml;
  /// Per-node token grant/release/expire/restart lines. Keyed by node (like
  /// kernels are keyed by device) because only the order *within* one
  /// daemon is observable: independent nodes transitioning in the same
  /// microsecond interleave in engine-FIFO order, which legitimately
  /// differs between device engines that schedule different event counts.
  std::map<std::string, std::vector<std::string>> tokens;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::uint64_t total_events = 0;
};

enum class FaultChoice { kNone, kTokenDaemonRestart, kDevMgrCrash };

RunTraces RunCluster(const k8s::ClusterParts& parts, std::uint64_t seed,
                     workload::WorkloadConfig::JobKind kind,
                     FaultChoice fault) {
  // Heap-owned collector: trace callbacks installed on cluster components
  // keep firing during cluster teardown (DetachOwner materializes the due
  // units of live fused groups), so the collector must outlive the scope.
  auto out = std::make_unique<RunTraces>();
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = 3;
    ccfg.gpus_per_node = 2;
    k8s::Cluster cluster(ccfg, parts);
    RunTraces* sink = out.get();
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
    wcfg.job_kind = kind;
    workload::WorkloadDriver driver(
        &cluster, &host, workload::WorkloadDriver::Mode::kKubeShare,
        &kubeshare, wcfg);

    chaos::FaultPlan plan;
    if (fault != FaultChoice::kNone) {
      chaos::Fault f;
      f.at = Seconds(8);
      if (fault == FaultChoice::kTokenDaemonRestart) {
        f.kind = chaos::FaultKind::kTokenDaemonRestart;
        f.node = "node-0";
      } else {
        f.kind = chaos::FaultKind::kDevMgrCrash;
        f.duration = Seconds(2);
      }
      plan.faults.push_back(f);
    }
    chaos::FaultInjector injector(&cluster, plan);
    injector.SetKubeShare(&kubeshare);

    EXPECT_TRUE(cluster.Start().ok());
    EXPECT_TRUE(kubeshare.Start().ok());
    EXPECT_TRUE(injector.Arm().ok());
    cluster.nvml().Start();
    driver.Start();
    cluster.sim().RunUntil(Seconds(35));
    cluster.nvml().Stop();

    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      for (auto& dev : cluster.node(n).gpus) {
        sink->nvml[dev->uuid().value()] =
            cluster.nvml().SamplesFor(dev->uuid());
      }
    }
    sink->completed = host.completed();
    sink->failed = host.failed();
    sink->total_events = cluster.sim().lifetime_events();
  }
  return std::move(*out);
}

/// Line-by-line comparison that reports the first divergence with context
/// (a raw vector EXPECT_EQ truncates long traces before the mismatch).
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

void ExpectTracesEqual(const RunTraces& fused, const RunTraces& reference,
                       const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(fused.completed, reference.completed);
  EXPECT_EQ(fused.failed, reference.failed);

  ASSERT_EQ(fused.kernels.size(), reference.kernels.size());
  for (const auto& [uuid, lines] : fused.kernels) {
    auto it = reference.kernels.find(uuid);
    ASSERT_NE(it, reference.kernels.end()) << uuid;
    ExpectLinesEqual(lines, it->second, "kernel trace on " + uuid);
  }

  ASSERT_EQ(fused.nvml.size(), reference.nvml.size());
  for (const auto& [uuid, samples] : fused.nvml) {
    auto it = reference.nvml.find(uuid);
    ASSERT_NE(it, reference.nvml.end()) << uuid;
    ASSERT_EQ(samples.size(), it->second.size()) << uuid;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(samples[i].at, it->second[i].at) << uuid << " sample " << i;
      EXPECT_EQ(samples[i].gpu_util, it->second[i].gpu_util)  // bit-equal
          << uuid << " sample " << i;
      EXPECT_EQ(samples[i].mem_used, it->second[i].mem_used)
          << uuid << " sample " << i;
    }
  }

  ASSERT_EQ(fused.tokens.size(), reference.tokens.size());
  for (const auto& [node, lines] : fused.tokens) {
    auto it = reference.tokens.find(node);
    ASSERT_NE(it, reference.tokens.end()) << node;
    ExpectLinesEqual(lines, it->second, "token trace on " + node);
  }
}

void CompareModes(std::uint64_t seed, workload::WorkloadConfig::JobKind kind,
                  FaultChoice fault, const std::string& label) {
  const RunTraces fused = RunCluster({}, seed, kind, fault);
  const RunTraces reference =
      RunCluster(oracles::ReferenceGpus(), seed, kind, fault);
  ExpectTracesEqual(fused, reference, label);
  // Fusion may only remove engine events, never add observable work.
  EXPECT_LE(fused.total_events, reference.total_events) << label;
}

TEST(DeviceEquivalence, InferenceClusterTracesByteEqualAcrossSeeds) {
  for (std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u}) {
    CompareModes(seed, workload::WorkloadConfig::JobKind::kInference,
                 FaultChoice::kNone, "inference seed " + std::to_string(seed));
  }
}

TEST(DeviceEquivalence, TrainingClusterTracesByteEqualAcrossSeeds) {
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    const RunTraces fused =
        RunCluster({}, seed,
                   workload::WorkloadConfig::JobKind::kTraining,
                   FaultChoice::kNone);
    const RunTraces reference =
        RunCluster(oracles::ReferenceGpus(), seed,
                   workload::WorkloadConfig::JobKind::kTraining,
                   FaultChoice::kNone);
    const std::string label = "training seed " + std::to_string(seed);
    ExpectTracesEqual(fused, reference, label);
    // Back-to-back training steps are the kernel-heavy case: fusion must
    // show a real event reduction here, not just parity.
    EXPECT_LT(fused.total_events, reference.total_events) << label;
  }
}

TEST(DeviceEquivalence, TracesByteEqualAcrossTokenDaemonRestart) {
  for (std::uint64_t seed : {31u, 32u}) {
    CompareModes(seed, workload::WorkloadConfig::JobKind::kInference,
                 FaultChoice::kTokenDaemonRestart,
                 "daemon-restart seed " + std::to_string(seed));
  }
}

TEST(DeviceEquivalence, TracesByteEqualAcrossDevMgrCrash) {
  for (std::uint64_t seed : {41u, 42u}) {
    CompareModes(seed, workload::WorkloadConfig::JobKind::kTraining,
                 FaultChoice::kDevMgrCrash,
                 "devmgr-crash seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace ks::gpu
