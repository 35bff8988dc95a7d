// Serving soak: one seeded SLO service on a small cluster, its replicaset
// driven by the SloAutoscaler through a diurnal load that scales the fleet
// up and down every period, run for 1x and 8x a simulated horizon with
// shed admission at the token daemons. Admission state must be bounded by
// the live replicas, not by every replica ever scheduled, and the engine
// work must grow linearly with the horizon:
//   - at the end of both runs, the daemons together keep admission state
//     for no more containers than there are live replicas, although the
//     long run created many more;
//   - the 8x run executes at most 8.5x the 1x run's engine events.
// Run with `ctest -L soak`.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "k8s/cluster.hpp"
#include "kubeshare/autoscaler.hpp"
#include "kubeshare/kubeshare.hpp"
#include "kubeshare/replicaset.hpp"
#include "serving/arrivals.hpp"
#include "serving/service.hpp"
#include "workload/host.hpp"

namespace ks {
namespace {

struct ServingSoakResult {
  std::size_t serving_states = 0;
  /// Replicas up and taking requests (the frontend's ready set). This can
  /// exceed the replicaset's own live count: a replica scaled down while
  /// its pod was still being set up can keep running without a sharePod.
  std::size_t live_replicas = 0;
  std::uint64_t created = 0;
  std::uint64_t served = 0;
  std::uint64_t sheds = 0;
  std::uint64_t events = 0;
};

ServingSoakResult RunServingSoak(std::uint64_t seed, Duration horizon) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 2;
  ccfg.gpus_per_node = 2;
  ccfg.backend.admission.enabled = true;
  ccfg.backend.admission.policy = vgpu::AdmissionConfig::Policy::kShed;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());

  serving::ServiceConfig cfg;
  cfg.name = "svc";
  // One-minute load cycle between a trough one replica serves and a crest
  // that needs several: the autoscaler adds and removes replicas every
  // cycle for the whole horizon.
  cfg.envelope = serving::RateEnvelope::Diurnal(10.0, 300.0, Seconds(60.0));
  cfg.slo_p99 = Millis(100);
  cfg.until = Time{horizon};
  cfg.seed = seed;
  cfg.replica.kernel_per_request = Millis(10);
  cfg.replica.model_bytes = 64ull << 20;
  serving::ServiceFrontend frontend(&cluster, &host, cfg);

  kubeshare::SharePodReplicaSet::Spec spec;
  spec.name = "svc";
  spec.replicas = 1;
  spec.template_spec.gpu.gpu_request = 0.45;
  spec.template_spec.gpu.gpu_limit = 1.0;
  spec.template_spec.gpu.gpu_mem = 0.15;
  kubeshare::SharePodReplicaSet rs(&kubeshare, spec);
  rs.SetReplicaHook(frontend.MakeReplicaHook());
  EXPECT_TRUE(rs.Start().ok());

  kubeshare::AutoscalerConfig acfg;
  acfg.slo_p99 = cfg.slo_p99;
  acfg.min_replicas = 1;
  acfg.max_replicas = 6;
  acfg.down_cooldown = Seconds(5.0);
  kubeshare::SloAutoscaler scaler(&cluster.sim(), cluster.tick_hub(), &rs,
                                  acfg, frontend.MakeAutoscalerProbe());
  EXPECT_TRUE(scaler.Start().ok());
  frontend.Start();

  cluster.sim().RunUntil(Time{horizon});

  ServingSoakResult r;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    const vgpu::TokenBackendApi& backend = *cluster.node(n).token_backend;
    r.serving_states += backend.serving_states();
    r.sheds += backend.admission_sheds();
  }
  r.live_replicas = frontend.ready_replicas();
  r.created = rs.created_total();
  r.served = frontend.served();
  r.events = cluster.sim().executed();
  return r;
}

class ServingSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServingSoak, AdmissionStateBoundedByLiveReplicasOverEightfoldHorizon) {
  const Duration horizon = Seconds(120);
  const ServingSoakResult one = RunServingSoak(GetParam(), horizon);
  const ServingSoakResult eight = RunServingSoak(GetParam(), horizon * 8);

  // The fleet really churned, admission really shed, and the long run
  // kept serving throughout.
  EXPECT_GT(one.created, 2 * one.live_replicas);
  EXPECT_GT(eight.created, 4 * one.created);
  EXPECT_GT(eight.served, 6 * one.served);
  EXPECT_GT(one.sheds, 0u);

  EXPECT_GT(one.serving_states, 0u);
  EXPECT_LE(one.serving_states, one.live_replicas);
  EXPECT_LE(eight.serving_states, eight.live_replicas);
  EXPECT_LE(eight.events * 2, one.events * 17)
      << "1x: " << one.events << " events, 8x: " << eight.events;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ServingSoak,
    ::testing::Values(std::uint64_t{11}, std::uint64_t{23}),
    [](const ::testing::TestParamInfo<std::uint64_t>& info) {
      return "Seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace ks
