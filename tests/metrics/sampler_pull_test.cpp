// Differential tests for PeriodicSampler, which rides the shared
// sim::TickHub: its samples must be byte-equal to a push-mode sampler (one
// private self-rescheduling event per sample, the design the hub replaced,
// kept below as a test-local oracle) — first in isolation, then through a
// full KubeShare workload with a DevMgr crash-and-rebuild in the middle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "k8s/cluster.hpp"
#include "kubeshare/kubeshare.hpp"
#include "metrics/sampler.hpp"
#include "sim/simulation.hpp"
#include "sim/tick_hub.hpp"
#include "workload/generator.hpp"
#include "workload/host.hpp"

namespace ks::metrics {
namespace {

/// Push-mode oracle: the self-rescheduling sampler PeriodicSampler was
/// before every instrument moved onto the shared tick — one private engine
/// event per sample.
class PushSampler {
 public:
  PushSampler(sim::Simulation* sim, Duration period,
              PeriodicSampler::Probe probe)
      : sim_(sim), period_(period), probe_(std::move(probe)) {}
  ~PushSampler() { Stop(); }

  void Start() { event_ = sim_->ScheduleAfter(period_, [this] { Tick(); }); }
  void Stop() {
    if (event_ == sim::kInvalidEvent) return;
    sim_->Cancel(event_);
    event_ = sim::kInvalidEvent;
  }

  const std::vector<PeriodicSampler::Sample>& series() const {
    return series_;
  }
  double MaxValue() const {
    double best = 0.0;
    for (const auto& s : series_) best = std::max(best, s.value);
    return best;
  }
  double MeanValue() const {
    double total = 0.0;
    for (const auto& s : series_) total += s.value;
    return series_.empty() ? 0.0 : total / static_cast<double>(series_.size());
  }

 private:
  void Tick() {
    series_.push_back({sim_->Now(), probe_()});
    event_ = sim_->ScheduleAfter(period_, [this] { Tick(); });
  }

  sim::Simulation* sim_;
  Duration period_;
  PeriodicSampler::Probe probe_;
  sim::EventId event_ = sim::kInvalidEvent;
  std::vector<PeriodicSampler::Sample> series_;
};

void ExpectSeriesEqual(const std::vector<PeriodicSampler::Sample>& a,
                       const std::vector<PeriodicSampler::Sample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << "sample " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "sample " << i;  // bit-equal
  }
}

/// Push and pull samplers watching the same mutating value in one
/// simulation. The value changes strictly between sample instants, so both
/// modes must record the same timestamps and the same bits.
TEST(SamplerPull, PullSamplesAreByteEqualToPush) {
  sim::Simulation sim;
  sim::TickHub hub(&sim, Millis(1));
  double value = 0.0;
  // Mutations at 50 ms + k*100 ms — never on the 100 ms sample grid.
  for (int k = 0; k < 40; ++k) {
    sim.ScheduleAt(Millis(50 + 100 * k),
                   [&value, k] { value = 1.0 / (1.0 + k); });
  }

  PushSampler push(&sim, Millis(100), [&value] { return value; });
  PeriodicSampler pull(&hub, Millis(100), [&value] { return value; });
  push.Start();
  pull.Start();
  sim.RunUntil(Seconds(4));
  push.Stop();
  pull.Stop();

  ASSERT_EQ(push.series().size(), 40u);
  ExpectSeriesEqual(push.series(), pull.series());
  EXPECT_EQ(push.MeanValue(), pull.MeanValue());
  EXPECT_EQ(push.MaxValue(), pull.MaxValue());
}

/// The point of the hub: N same-period instruments share ONE engine event
/// per instant instead of keeping N private ones.
TEST(SamplerPull, EqualPeriodSamplersCoalesceOntoOneEngineEvent) {
  sim::Simulation sim;
  sim::TickHub hub(&sim, Millis(1));
  double value = 0.0;
  PeriodicSampler a(&hub, Millis(10), [&value] { return value; });
  PeriodicSampler b(&hub, Millis(10), [&value] { return value; });
  PeriodicSampler c(&hub, Millis(10), [&value] { return value; });
  a.Start();
  b.Start();
  c.Start();
  sim.RunUntil(Millis(105));
  a.Stop();
  b.Stop();
  c.Stop();

  ASSERT_EQ(a.series().size(), 10u);
  EXPECT_EQ(hub.fires(), 30u);   // 3 instruments x 10 instants
  EXPECT_EQ(hub.ticks(), 10u);   // but only 10 engine events
}

/// Stopping one instrument must not disturb its co-tenants on the hub.
TEST(SamplerPull, StopUnsubscribesWithoutDisturbingOthers) {
  sim::Simulation sim;
  sim::TickHub hub(&sim, Millis(1));
  double value = 0.0;
  PeriodicSampler a(&hub, Millis(10), [&value] { return value; });
  PeriodicSampler b(&hub, Millis(10), [&value] { return value; });
  a.Start();
  b.Start();
  sim.RunUntil(Millis(55));
  a.Stop();
  sim.RunUntil(Millis(105));
  b.Stop();
  EXPECT_EQ(a.series().size(), 5u);
  EXPECT_EQ(b.series().size(), 10u);
}

// ---------------------------------------------------------------------------
// Full-stack differential: two identical KubeShare runs with a DevMgr crash
// mid-flight; one watches the cluster with the push-mode oracle, the other
// with PeriodicSampler instruments on the cluster's shared tick. Probes are
// read-only, so the runs are bit-deterministic twins and the series must be
// byte-equal — including across the crash, the rebuild, and the requeues.

struct ClusterRunResult {
  std::vector<PeriodicSampler::Sample> running_pods;
  std::size_t completed = 0;
  std::uint64_t devmgr_crashes = 0;
  std::uint64_t hub_fires = 0;
  std::uint64_t hub_ticks = 0;
};

ClusterRunResult RunClusterWatched(bool pull_mode) {
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.gpus_per_node = 2;
  k8s::Cluster cluster(ccfg);
  kubeshare::KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  workload::WorkloadConfig wcfg;
  wcfg.total_jobs = 16;
  wcfg.mean_interarrival = Seconds(1.0);
  wcfg.demand_mean = 0.35;
  wcfg.demand_stddev = 0.15;
  wcfg.job_duration = Seconds(8);
  wcfg.seed = 4242;
  workload::WorkloadDriver driver(&cluster, &host,
                                  workload::WorkloadDriver::Mode::kKubeShare,
                                  &kubeshare, wcfg);

  chaos::FaultPlan plan;
  chaos::Fault crash;
  crash.at = Seconds(10);
  crash.kind = chaos::FaultKind::kDevMgrCrash;
  crash.duration = Seconds(2);
  plan.faults.push_back(crash);
  chaos::FaultInjector injector(&cluster, plan);
  injector.SetKubeShare(&kubeshare);

  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());
  EXPECT_TRUE(injector.Arm().ok());
  driver.Start();

  auto probe = [&cluster] {
    double running = 0.0;
    for (const k8s::Pod& pod : cluster.api().pods().List()) {
      if (pod.status.phase == k8s::PodPhase::kRunning) running += 1.0;
    }
    return running;
  };
  // 1003 ms: on the hub's 1 ms grid but off the second-aligned cadences of
  // the cluster components, so no cluster event shares a sample's instant
  // (first collision at ~1003 s, far past the horizon).
  const Duration period = Millis(1003);
  ClusterRunResult result;
  if (pull_mode) {
    PeriodicSampler sampler(cluster.tick_hub(), period, probe);
    PeriodicSampler extra(cluster.tick_hub(), period, probe);  // co-tenant
    extra.Start();
    sampler.Start();
    cluster.sim().RunUntil(Seconds(40));
    sampler.Stop();
    extra.Stop();
    // The co-tenant saw the same cluster through the same tick...
    ExpectSeriesEqual(sampler.series(), extra.series());
    result.running_pods = sampler.series();
    result.hub_fires = cluster.tick_hub()->fires();
    result.hub_ticks = cluster.tick_hub()->ticks();
  } else {
    PushSampler sampler(&cluster.sim(), period, probe);
    sampler.Start();
    cluster.sim().RunUntil(Seconds(40));
    sampler.Stop();
    result.running_pods = sampler.series();
  }
  result.completed = host.completed();
  result.devmgr_crashes = injector.stats().devmgr_crashes;
  return result;
}

TEST(SamplerPull, ClusterSeriesByteEqualAcrossDevMgrCrash) {
  const ClusterRunResult push = RunClusterWatched(/*pull_mode=*/false);
  const ClusterRunResult pull = RunClusterWatched(/*pull_mode=*/true);

  ASSERT_EQ(push.devmgr_crashes, 1u);
  ASSERT_EQ(pull.devmgr_crashes, 1u);
  EXPECT_EQ(push.completed, pull.completed);
  ASSERT_GE(push.running_pods.size(), 30u);
  ExpectSeriesEqual(push.running_pods, pull.running_pods);
  // ...and the two pull instruments cost one engine event per instant, not
  // two: the fires/ticks ratio is exactly the instrument count.
  EXPECT_EQ(pull.hub_fires, 2 * pull.hub_ticks);
}

}  // namespace
}  // namespace ks::metrics
