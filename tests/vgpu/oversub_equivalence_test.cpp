// Differential tests for memory oversubscription (ROADMAP item 2).
//
// Three oracle pairs are pinned here:
//   1. Oversubscription enabled at factor 1.0 with a working set that
//      fits must leave the cluster's kernel, token, and NVML utilization
//      traces byte-equal to the feature-off system — even while chaos
//      restarts the token daemon and crashes the DevMgr mid-run. (NVML
//      mem_used is excluded from this pair only: over-commitment mode
//      host-backs allocations through the SwapManager instead of the
//      device allocator, a pre-existing design choice, so the device's
//      own allocation gauge legitimately reads zero.)
//   2. BackendConfig::tq enabled with no memory pressure must be
//      byte-equal to tq disabled: GrantQuotaFor substitutes the
//      exclusive quantum only on devices the thrash detector engaged,
//      and with zero swap traffic it must never engage.
//   3. On a swap-heavy cluster (factor 2.0, every hand-off migrates
//      pages over the shared link) the fused virtual-time device engine
//      and the per-kernel reference engine must stay byte-equal: the
//      migration lane lives in the GpuDevice base class and both
//      engines charge it verbatim.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/rng.hpp"
#include "chaos/injector.hpp"
#include "gpu/device.hpp"
#include "gpu/nvml.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/swap.hpp"
#include "oracles/cluster_parts.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::vgpu {
namespace {

struct OversubTraces {
  std::map<std::string, std::vector<std::string>> kernels;  // by device uuid
  std::map<std::string, std::vector<std::string>> tokens;   // by node
  std::map<std::string, std::vector<std::string>> nvml_util;  // at + gpu_util
  std::map<std::string, std::vector<std::string>> nvml_mem;   // at + mem_used
  std::string pool_dump;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t tq_engagements = 0;
};

struct RunOptions {
  bool oversub = false;
  double factor = 1.0;
  bool tq = false;
  /// Run on the per-kernel reference device instead of the fused one.
  bool reference_gpus = false;
  std::uint64_t seed = 1;
  /// Scripted kTokenDaemonRestart + kDevMgrCrash mid-run.
  bool chaos = false;
  int nodes = 2;
  int gpus_per_node = 2;
  int tenants = 6;
  /// Per-tenant model as a fraction of one device's memory.
  double model_frac = 0.25;
  double gpu_mem = 0.3;
  Time horizon = Seconds(60);
};

OversubTraces RunOversubCluster(const RunOptions& opt) {
  // Heap-owned collector, as in the device equivalence suite: trace
  // callbacks keep firing during cluster teardown.
  auto out = std::make_unique<OversubTraces>();
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = opt.nodes;
    ccfg.gpus_per_node = opt.gpus_per_node;
    ccfg.oversub.enabled = opt.oversub;
    ccfg.oversub.swap.oversubscription_factor = opt.factor;
    ccfg.backend.tq.enabled = opt.tq;
    k8s::Cluster cluster(ccfg, opt.reference_gpus ? oracles::ReferenceGpus()
                                                  : k8s::ClusterParts{});
    kubeshare::KubeShareConfig kcfg;
    kcfg.allow_memory_overcommit = opt.oversub;
    kcfg.memory_overcommit_factor = opt.oversub ? opt.factor : 0.0;
    kubeshare::KubeShare kubeshare(&cluster, kcfg);
    workload::WorkloadHost host(&cluster);

    OversubTraces* sink = out.get();
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
    cluster.nvml().Start();

    const auto capacity =
        static_cast<double>(cluster.config().gpu_spec.memory_bytes);
    Rng rng(opt.seed);
    for (int i = 0; i < opt.tenants; ++i) {
      const std::string name = "tenant-" + std::to_string(i);
      workload::PhasedTrainingSpec spec;
      spec.epochs = 2;
      spec.steps_per_epoch = static_cast<int>(rng.UniformInt(40, 80));
      spec.step_kernel = Millis(rng.UniformInt(5, 15));
      spec.io_per_epoch = Millis(300);
      spec.model_bytes =
          static_cast<std::uint64_t>(opt.model_frac * capacity);
      host.ExpectJob(name, [spec] {
        return std::make_unique<workload::PhasedTrainingJob>(spec);
      });
      kubeshare::SharePod sp;
      sp.meta.name = name;
      sp.spec.gpu.gpu_request = 0.3;
      sp.spec.gpu.gpu_limit = 1.0;
      sp.spec.gpu.gpu_mem = opt.gpu_mem;
      EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
    }

    chaos::FaultPlan plan;
    if (opt.chaos) {
      chaos::Fault daemon;
      daemon.at = Seconds(8);
      daemon.kind = chaos::FaultKind::kTokenDaemonRestart;
      daemon.node = "node-0";
      daemon.duration = Seconds(2);
      plan.faults.push_back(daemon);
      chaos::Fault devmgr;
      devmgr.at = Seconds(14);
      devmgr.kind = chaos::FaultKind::kDevMgrCrash;
      devmgr.duration = Seconds(3);
      plan.faults.push_back(devmgr);
    }
    chaos::FaultInjector injector(&cluster, plan);
    injector.SetKubeShare(&kubeshare);
    if (opt.chaos) {
      EXPECT_TRUE(injector.Arm().ok()) << "chaos plan failed to arm";
    }

    cluster.sim().RunUntil(opt.horizon);
    cluster.nvml().Stop();

    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      for (auto& dev : cluster.node(n).gpus) {
        const std::string uuid = dev->uuid().value();
        for (const gpu::NvmlSample& s : cluster.nvml().SamplesFor(
                 dev->uuid())) {
          sink->nvml_util[uuid].push_back(std::to_string(s.at.count()) +
                                          " " + std::to_string(s.gpu_util));
          sink->nvml_mem[uuid].push_back(std::to_string(s.at.count()) +
                                         " " + std::to_string(s.mem_used));
        }
      }
    }
    const metrics::SwapMetrics swap = metrics::CollectSwapMetrics(
        cluster, [&host](const GpuUuid& uuid) { return host.SwapFor(uuid); });
    sink->migrations = swap.migrations_total;
    sink->tq_engagements = swap.tq_engagements_total;
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

void ExpectMapsEqual(
    const std::map<std::string, std::vector<std::string>>& a,
    const std::map<std::string, std::vector<std::string>>& b,
    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (const auto& [key, lines] : a) {
    auto it = b.find(key);
    ASSERT_NE(it, b.end()) << what << " " << key;
    ExpectLinesEqual(lines, it->second, what + " on " + key);
  }
}

void ExpectTracesEqual(const OversubTraces& a, const OversubTraces& b,
                       const std::string& label, bool include_mem = true) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  ExpectMapsEqual(a.kernels, b.kernels, "kernel trace");
  ExpectMapsEqual(a.tokens, b.tokens, "token trace");
  ExpectMapsEqual(a.nvml_util, b.nvml_util, "nvml gpu_util");
  if (include_mem) {
    ExpectMapsEqual(a.nvml_mem, b.nvml_mem, "nvml mem_used");
  }
}

TEST(OversubEquivalence, FactorOneByteEqualToFeatureOffUnderChaos) {
  for (const std::uint64_t seed : {91u, 92u, 93u}) {
    RunOptions on;
    on.oversub = true;
    on.factor = 1.0;  // aggregate working set fits: no page ever moves
    on.chaos = true;
    on.seed = seed;
    RunOptions off = on;
    off.oversub = false;
    const OversubTraces a = RunOversubCluster(on);
    const OversubTraces b = RunOversubCluster(off);
    // mem_used excluded: over-commitment host-backs allocations (see
    // file header); every scheduling-visible trace must still match.
    ExpectTracesEqual(a, b, "factor-1.0 seed " + std::to_string(seed),
                      /*include_mem=*/false);
    EXPECT_EQ(a.migrations, 0u) << "factor 1.0 must never migrate";
    EXPECT_GT(a.completed, 0u);
  }
}

TEST(OversubEquivalence, TqEnabledNoPressureByteEqualUnderChaos) {
  for (const std::uint64_t seed : {94u, 95u}) {
    RunOptions tq_on;
    tq_on.oversub = true;
    tq_on.factor = 1.0;
    tq_on.tq = true;
    tq_on.chaos = true;
    tq_on.seed = seed;
    RunOptions tq_off = tq_on;
    tq_off.tq = false;
    const OversubTraces a = RunOversubCluster(tq_on);
    const OversubTraces b = RunOversubCluster(tq_off);
    ExpectTracesEqual(a, b, "tq-idle seed " + std::to_string(seed));
    EXPECT_EQ(a.tq_engagements, 0u)
        << "thrash detector engaged without swap traffic";
  }
}

TEST(OversubEquivalence, SwapHeavyFusedMatchesReferenceEngine) {
  RunOptions fused;
  fused.oversub = true;
  fused.factor = 2.0;
  fused.tq = true;
  fused.nodes = 1;
  fused.gpus_per_node = 1;
  fused.tenants = 3;
  fused.model_frac = 0.55;  // aggregate 1.65x capacity: every hand-off swaps
  fused.gpu_mem = 0.6;
  fused.horizon = Seconds(120);
  RunOptions reference = fused;
  reference.reference_gpus = true;
  const OversubTraces a = RunOversubCluster(fused);
  const OversubTraces b = RunOversubCluster(reference);
  ExpectTracesEqual(a, b, "swap-heavy engines");
  EXPECT_EQ(a.pool_dump, b.pool_dump);
  EXPECT_GT(a.migrations, 0u) << "working set above capacity never swapped";
}

TEST(OversubEquivalence, SwapHeavyRunIsDeterministic) {
  RunOptions opt;
  opt.oversub = true;
  opt.factor = 2.0;
  opt.tq = true;
  opt.nodes = 1;
  opt.gpus_per_node = 1;
  opt.tenants = 3;
  opt.model_frac = 0.55;
  opt.gpu_mem = 0.6;
  opt.horizon = Seconds(120);
  const OversubTraces a = RunOversubCluster(opt);
  const OversubTraces b = RunOversubCluster(opt);
  ExpectTracesEqual(a, b, "determinism");
  EXPECT_EQ(a.pool_dump, b.pool_dump);
  EXPECT_EQ(a.migrations, b.migrations);
}

}  // namespace
}  // namespace ks::vgpu
