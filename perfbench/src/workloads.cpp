// The three benchmark workloads, driven through the simulator's public
// entry points only: KubeShare::CreateSharePod, WorkloadHost::ExpectJob,
// SharePodReplicaSet, ServiceFrontend, SloAutoscaler and
// chaos::FaultInjector. Every input (arrival times, demands, rates, fault
// times) is generated here from the seed before the system is built.
//
// A repetition is: build + Start (setup_s), then a loop of fixed 5 s
// simulated slices until the workload drains. Every 15 simulated seconds
// an operator-style Prometheus scrape exports the cluster (and, on serve,
// the SLO) metrics into a discarding stream. In a traced repetition, read-
// only probes run between slices and every call is wrapped in a span.

#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <streambuf>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "k8s/cluster.hpp"
#include "k8s/resources.hpp"
#include "kubeshare/autoscaler.hpp"
#include "kubeshare/kubeshare.hpp"
#include "kubeshare/replicaset.hpp"
#include "metrics/cluster_metrics.hpp"
#include "metrics/latency_digest.hpp"
#include "metrics/prometheus.hpp"
#include "metrics/slo.hpp"
#include "serving/arrivals.hpp"
#include "serving/service.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace perfbench {
namespace {

using namespace ks;
using Clock = std::chrono::steady_clock;

constexpr Duration kSlice = Seconds(5);
constexpr Duration kScrapeEvery = Seconds(15);

// ---- Workload shapes --------------------------------------------------
// train-soak: the paper's 8x4 testbed, long fractional training jobs all
// placed in the first minute, closed batch until every job drains.
constexpr int kSoakJobs = 100;
constexpr Duration kSoakGap = Millis(600);
constexpr Duration kSoakJobLength = Seconds(600);
constexpr Duration kSoakKernel = Millis(5);
// churn: 64x4, short Poisson inference jobs (the paper's section 5.3 mix)
// arriving open-loop at ~10/s, plus a scripted control-plane fault plan.
constexpr int kChurnNodes = 64;
constexpr int kChurnJobs = 2000;
constexpr Duration kChurnGap = Millis(100);
constexpr Duration kChurnJobLength = Seconds(30);
constexpr Duration kChurnKernel = Millis(20);
// serve: 16x4, sixteen SLO services (eight steady, eight flash crowds).
constexpr int kServices = 16;
constexpr int kServeNodes = 16;
constexpr double kServeBaseRps = 150.0;
constexpr double kServeFlashRps = 400.0;
constexpr Duration kServeArrivals = Seconds(150);
constexpr Duration kServeFlashHold = Seconds(40);
constexpr Duration kServeKernel = Millis(5);
constexpr Duration kServeSlo = Millis(250);
constexpr Duration kServeWarmup = Seconds(30);

std::uint64_t Salt(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kTrainSoak: return 0x7261696eULL;
    case WorkloadKind::kChurn: return 0x6368726eULL;
    case WorkloadKind::kServe: return 0x73727665ULL;
  }
  return 0;
}

/// Highest of p99.9 / p99 / p90 / p50 that has at least ten samples
/// beyond it, in permille.
int TailPermille(std::uint64_t n) {
  for (int q : {999, 990, 900}) {
    if (n * static_cast<std::uint64_t>(1000 - q) >= 10 * 1000) return q;
  }
  return 500;
}

const char* PermilleName(int q) {
  switch (q) {
    case 999: return "p99.9";
    case 990: return "p99";
    case 900: return "p90";
  }
  return "p50";
}

/// Streambuf that accepts and drops every byte. Unlike a null stream (whose
/// failed state short-circuits formatting), the exporter's Write still does
/// its full work.
class DiscardBuf : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

/// FNV-1a over the canonical simulated outputs.
class Fingerprint {
 public:
  void Add(std::uint64_t v) { Bytes(&v, sizeof v); }
  void Add(std::int64_t v) { Bytes(&v, sizeof v); }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  void Add(const std::string& s) {
    Add(static_cast<std::uint64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct JobInput {
  std::string name;
  Time at{0};
  double demand = 0.0;
  int units = 1;  // training steps or inference requests
  std::uint64_t seed = 0;
};

/// Rates and the crowd pattern are fixed so every seed offers the same
/// load; the seed jitters the crowds in time and seeds each arrival stream.
struct ServiceInput {
  std::string name;
  bool flash = false;
  Time flash_at{0};  // after the warm-up
  std::uint64_t seed = 0;
};

/// `count` jobs with Poisson arrivals. Demands are one fixed sample of
/// N(0.3, 0.1) truncated to [0.05, 1] (drawn from a constant seed) whose
/// order the run's seed shuffles: every seed offers the same total work and
/// the same demand mix, so seeds differ in arrival times and packing order
/// rather than in how much there is to do.
std::vector<JobInput> MakeJobs(Rng& rng, int count, Duration mean_gap,
                               Duration length, Duration kernel) {
  Rng fixed(0x64656d616e64ULL);
  std::vector<double> demands;
  for (int i = 0; i < count; ++i) {
    demands.push_back(fixed.TruncatedNormal(0.3, 0.1, 0.05, 1.0));
  }
  std::shuffle(demands.begin(), demands.end(), rng.engine());
  std::vector<JobInput> jobs;
  Time at{0};
  for (int i = 0; i < count; ++i) {
    if (i > 0) at += rng.ExponentialInterarrival(mean_gap);
    JobInput j;
    j.name = "job-" + std::to_string(i);
    j.at = at;
    j.demand = demands[static_cast<std::size_t>(i)];
    j.units = std::max(1, static_cast<int>(std::lround(
                              j.demand / ToSeconds(kernel) *
                              ToSeconds(length))));
    j.seed = rng.engine()();
    jobs.push_back(std::move(j));
  }
  return jobs;
}

/// Everything the cluster owns for one repetition.
struct Rig {
  Rig(const k8s::ClusterConfig& c, const kubeshare::KubeShareConfig& k)
      : cluster(c), kubeshare(&cluster, k), host(&cluster) {}
  k8s::Cluster cluster;
  kubeshare::KubeShare kubeshare;
  workload::WorkloadHost host;
};

struct Service {
  std::unique_ptr<serving::ServiceFrontend> frontend;
  std::unique_ptr<kubeshare::SharePodReplicaSet> replicaset;
  std::unique_ptr<kubeshare::SloAutoscaler> scaler;
};

/// Readings the traced repetition's probes accumulate.
struct ProbeLog {
  std::vector<std::pair<std::uint64_t, std::int64_t>> slices;  // events, ns
  RunningStats list_pods_us;
  RunningStats free_gpus_us;
  RunningStats submit_us;
  std::vector<double> scrape_us;
  std::uint64_t scrape_samples = 0;
  std::vector<double> usage_ns_per_query;  // one entry per probe
  std::uint64_t usage_queries = 0;
  std::size_t sim_pending_peak = 0;
  std::size_t sched_pending_peak = 0;
  std::size_t pool_peak = 0;
  std::size_t timers_peak = 0;
  double queue_sum = 0.0;
  std::uint64_t queue_samples = 0;
  std::uint64_t max_pod_uid = 0;
  std::uint64_t probe_snapshot_hits = 0;
  std::uint64_t probe_snapshot_refreshes = 0;
};

/// Ratio of the last tenth's mean to the first tenth's, over `values`.
double Growth(const std::vector<double>& values) {
  if (values.size() < 2) return 1.0;
  const std::size_t k = std::max<std::size_t>(1, values.size() / 10);
  double first = 0.0;
  double last = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    first += values[i];
    last += values[values.size() - 1 - i];
  }
  return first > 0.0 ? last / first : 0.0;
}

class Rep {
 public:
  Rep(WorkloadKind kind, std::uint64_t seed, Tracer* tracer)
      : kind_(kind), tr_(tracer) {
    Rng rng(seed ^ Salt(kind));
    switch (kind_) {
      case WorkloadKind::kTrainSoak:
        jobs_ = MakeJobs(rng, kSoakJobs, kSoakGap, kSoakJobLength,
                         kSoakKernel);
        horizon_ = Seconds(4 * 3600);
        break;
      case WorkloadKind::kChurn: {
        jobs_ = MakeJobs(rng, kChurnJobs, kChurnGap, kChurnJobLength,
                         kChurnKernel);
        horizon_ = Seconds(4 * 3600);
        const auto node = [&rng] {
          return "node-" + std::to_string(rng.UniformInt(0, kChurnNodes - 1));
        };
        chaos::Fault crash;
        crash.kind = chaos::FaultKind::kNodeCrash;
        crash.at = Seconds(rng.Uniform(120, 600));
        crash.node = node();
        crash.duration = Seconds(rng.Uniform(10, 20));  // auto-recovers
        chaos::Fault devmgr;
        devmgr.kind = chaos::FaultKind::kDevMgrCrash;
        devmgr.at = Seconds(rng.Uniform(120, 600));
        devmgr.duration = Seconds(rng.Uniform(2, 5));
        chaos::Fault sched;
        sched.kind = chaos::FaultKind::kSchedCrash;
        sched.at = Seconds(rng.Uniform(120, 600));
        sched.duration = Seconds(rng.Uniform(2, 5));
        plan_.faults = {crash, devmgr, sched};
        std::sort(plan_.faults.begin(), plan_.faults.end(),
                  [](const chaos::Fault& a, const chaos::Fault& b) {
                    return a.at < b.at;
                  });
        break;
      }
      case WorkloadKind::kServe:
        for (int i = 0; i < kServices; ++i) {
          ServiceInput s;
          s.name = "svc-" + std::to_string(i);
          s.flash = i >= kServices / 2;
          // Staggered crowds, 12.5 s apart, each jittered by up to 10 s.
          if (s.flash) {
            s.flash_at = Seconds(15.0 + 12.5 * (i - kServices / 2) +
                                 rng.Uniform(0.0, 10.0));
          }
          s.seed = rng.engine()();
          services_in_.push_back(s);
        }
        horizon_ = kServeWarmup + kServeArrivals + Seconds(600);
        break;
    }
  }

  /// Hash of the generated inputs, so a test can tell seeds apart without
  /// running the simulation.
  std::uint64_t InputsFingerprint() const {
    Fingerprint fp;
    for (const JobInput& j : jobs_) {
      fp.Add(j.name);
      fp.Add(static_cast<std::int64_t>(j.at.count()));
      fp.Add(j.demand);
      fp.Add(static_cast<std::int64_t>(j.units));
      fp.Add(j.seed);
    }
    for (const chaos::Fault& f : plan_.faults) fp.Add(f.ToString());
    for (const ServiceInput& s : services_in_) {
      fp.Add(s.name);
      fp.Add(static_cast<std::int64_t>(s.flash_at.count()));
      fp.Add(s.seed);
    }
    return fp.value();
  }

  void Setup() {
    ScopedSpan span(tr_, "setup");
    k8s::ClusterConfig c;
    kubeshare::KubeShareConfig k;
    if (kind_ == WorkloadKind::kChurn) {
      c.nodes = kChurnNodes;
      c.node_detection = Seconds(2);
      c.pod_eviction_timeout = Seconds(3);
      k.reconcile_period = Seconds(2);
      k.requeue_lost_workloads = true;
    }
    if (kind_ == WorkloadKind::kServe) {
      c.nodes = kServeNodes;
      c.backend.admission.enabled = true;
      c.backend.admission.policy = vgpu::AdmissionConfig::Policy::kShed;
    }
    {
      ScopedSpan s(tr_, "setup.k8s.construct");
      rig_ = std::make_unique<Rig>(c, k);
    }
    {
      ScopedSpan s(tr_, "setup.k8s.start");
      Count(rig_->cluster.Start(), "Cluster::Start");
      rig_->cluster.nvml().Start();
    }
    {
      ScopedSpan s(tr_, "setup.kubeshare.start");
      Count(rig_->kubeshare.Start(), "KubeShare::Start");
    }
    if (kind_ == WorkloadKind::kChurn) {
      ScopedSpan s(tr_, "setup.chaos.arm");
      injector_ =
          std::make_unique<chaos::FaultInjector>(&rig_->cluster, plan_);
      injector_->SetKubeShare(&rig_->kubeshare);
      Count(injector_->Arm(), "FaultInjector::Arm");
    }
    for (const ServiceInput& in : services_in_) {
      ScopedSpan s(tr_, "setup.serving.start", in.name);
      StartService(in);
    }
  }

  /// Runs the slices, with a batch of `ref` after each, and fills r's host
  /// timings of the run loop.
  void Run(RefKernel* ref, RepResult* r) {
    sim::Simulation& sim = rig_->cluster.sim();
    ScheduleNextJob();
    Time next_scrape = sim.Now() + kScrapeEvery;
    const auto run_start = Clock::now();
    Clock::duration ref_wall{0};
    double ref_cpu = 0.0;
    std::uint64_t ref_batches = 0;
    while (!Done() && sim.Now() < horizon_) {
      const double slice_cpu_start = ThreadCpuSeconds();
      const std::uint64_t before = sim.executed();
      const std::int64_t t0 = tr_ ? tr_->NowNs() : 0;
      {
        ScopedSpan s(tr_, "sim.run_until");
        sim.RunUntil(sim.Now() + kSlice);
        s.set_count(sim.executed() - before);
      }
      ++slices_;
      held_gpu_s_ += static_cast<double>(rig_->kubeshare.pool().size()) *
                     ToSeconds(kSlice);
      if (tr_ != nullptr) {
        probes_.slices.emplace_back(sim.executed() - before,
                                    tr_->NowNs() - t0);
      }
      if (sim.Now() >= next_scrape) {
        Scrape();
        next_scrape += kScrapeEvery;
      }
      r->cpu_s += ThreadCpuSeconds() - slice_cpu_start;
      if (tr_ != nullptr) Probe();
      ScopedSpan s(tr_, "host.ref_batch");
      const auto ref_start = Clock::now();
      ref_cpu += ref->Run();
      ref_wall += Clock::now() - ref_start;
      ++ref_batches;
    }
    r->wall_s = Secs(Clock::now() - run_start - ref_wall);
    r->ref_s = ref_batches > 0 ? ref_cpu / static_cast<double>(ref_batches)
                               : RefKernel::kNominalS;
    r->run_norm_s = r->cpu_s * RefKernel::kNominalS / r->ref_s;
  }

  void Finish(RepResult* r);

 private:
  void Count(const Status& s, const char* what) {
    ++attempted_;
    if (!s.ok()) {
      ++failed_;
      check_failures_.push_back(std::string(what) + ": " + s.ToString());
    }
  }

  void StartService(const ServiceInput& in) {
    serving::ServiceConfig cfg;
    cfg.name = in.name;
    cfg.envelope = Envelope(in);
    cfg.clients = static_cast<std::uint64_t>(
        (in.flash ? kServeFlashRps : kServeBaseRps) * 10.0);  // 0.1 rps each
    cfg.slo_p99 = kServeSlo;
    cfg.batch_window = Millis(10);
    cfg.until = kServeWarmup + kServeArrivals;
    cfg.seed = in.seed;
    cfg.replica.kernel_per_request = kServeKernel;
    cfg.replica.model_bytes = 256ull << 20;
    Service svc;
    svc.frontend = std::make_unique<serving::ServiceFrontend>(
        &rig_->cluster, &rig_->host, cfg);

    kubeshare::SharePodReplicaSet::Spec spec;
    spec.name = in.name;
    spec.replicas = 2;
    spec.template_spec.gpu.gpu_request = 0.3;
    spec.template_spec.gpu.gpu_limit = 1.0;
    spec.template_spec.gpu.gpu_mem = 0.1;
    svc.replicaset = std::make_unique<kubeshare::SharePodReplicaSet>(
        &rig_->kubeshare, spec);
    svc.replicaset->SetReplicaHook(svc.frontend->MakeReplicaHook());
    Count(svc.replicaset->Start(), "SharePodReplicaSet::Start");

    kubeshare::AutoscalerConfig acfg;
    acfg.slo_p99 = kServeSlo;
    acfg.min_replicas = 1;
    acfg.max_replicas = 16;
    svc.scaler = std::make_unique<kubeshare::SloAutoscaler>(
        &rig_->cluster.sim(), rig_->cluster.tick_hub(),
        svc.replicaset.get(), acfg, svc.frontend->MakeAutoscalerProbe());
    Count(svc.scaler->Start(), "SloAutoscaler::Start");
    svc.frontend->Start();
    ++attempted_;
    services_.push_back(std::move(svc));
  }

  /// No traffic while the initial replicas come up, then the service's
  /// base rate; flash crowds ramp to their peak in four steps over 5 s,
  /// hold, and ramp back down.
  static serving::RateEnvelope Envelope(const ServiceInput& in) {
    std::vector<serving::RateEnvelope::Segment> seg = {
        {Time{0}, 0.0}, {kServeWarmup, kServeBaseRps}};
    if (in.flash) {
      const Time up = kServeWarmup + in.flash_at;
      const Time down = up + Seconds(5) + kServeFlashHold;
      const double step = (kServeFlashRps - kServeBaseRps) / 4;
      for (int i = 1; i <= 4; ++i) {
        seg.push_back({up + Millis(1250) * (i - 1), kServeBaseRps + step * i});
      }
      for (int i = 1; i <= 4; ++i) {
        seg.push_back(
            {down + Millis(1250) * (i - 1), kServeFlashRps - step * i});
      }
    }
    return serving::RateEnvelope(std::move(seg));
  }

  void ScheduleNextJob() {
    if (next_job_ >= jobs_.size()) return;
    rig_->cluster.sim().ScheduleAt(jobs_[next_job_].at,
                                   [this] { SubmitJob(); });
  }

  void SubmitJob() {
    const JobInput& in = jobs_[next_job_++];
    ScopedSpan span(tr_, "kubeshare.submit", in.name);
    const auto t0 = Clock::now();
    if (kind_ == WorkloadKind::kTrainSoak) {
      workload::TrainingSpec spec;
      spec.steps = in.units;
      spec.step_kernel = kSoakKernel;
      rig_->host.ExpectJob(in.name, [spec] {
        return std::make_unique<workload::TrainingJob>(spec);
      });
    } else {
      workload::InferenceSpec spec;
      spec.total_requests = in.units;
      spec.request_rate_hz = in.demand / ToSeconds(kChurnKernel);
      spec.kernel_per_request = kChurnKernel;
      spec.seed = in.seed;
      rig_->host.ExpectJob(in.name, [spec] {
        return std::make_unique<workload::InferenceJob>(spec);
      });
    }
    ++attempted_;
    kubeshare::SharePod sp;
    sp.meta.name = in.name;
    sp.spec.pod.requests.Set(k8s::kResourceCpu, 1000);
    sp.spec.gpu.gpu_request = in.demand;
    sp.spec.gpu.gpu_limit = 1.0;
    sp.spec.gpu.gpu_mem = 0.2;
    Count(rig_->kubeshare.CreateSharePod(sp), "CreateSharePod");
    if (tr_ != nullptr) {
      probes_.submit_us.Add(Ms(Clock::now() - t0) * 1e3);
    }
    ScheduleNextJob();
  }

  bool Done() const {
    if (kind_ == WorkloadKind::kServe) {
      if (rig_->cluster.sim().Now() < kServeWarmup + kServeArrivals) {
        return false;
      }
      for (const Service& s : services_) {
        if (!s.frontend->Drained()) return false;
      }
      return true;
    }
    if (next_job_ < jobs_.size()) return false;
    bool all_terminal = true;
    rig_->kubeshare.sharepods().ForEach([&](const kubeshare::SharePod& sp) {
      if (!sp.terminal()) all_terminal = false;
    });
    return all_terminal;
  }

  void Scrape() {
    ScopedSpan span(tr_, "metrics.scrape");
    const auto t0 = Clock::now();
    exporter_.Clear();
    metrics::ExportClusterMetrics(rig_->cluster, &rig_->kubeshare, exporter_);
    if (kind_ == WorkloadKind::kServe) {
      std::vector<metrics::ServiceSloSample> samples;
      for (Service& s : services_) samples.push_back(s.frontend->Sample());
      metrics::ExportSloMetrics(
          metrics::CollectSloMetrics(rig_->cluster, std::move(samples)),
          exporter_);
    }
    std::ostream os(&sink_);
    exporter_.Write(os);
    ++attempted_;
    if (tr_ != nullptr) {
      probes_.scrape_us.push_back(Ms(Clock::now() - t0) * 1e3);
      probes_.scrape_samples = exporter_.sample_count();
    }
  }

  /// Read-only probes between slices (traced repetitions only).
  void Probe() {
    k8s::Cluster& cluster = rig_->cluster;
    kubeshare::KubeShare& ks = rig_->kubeshare;
    {
      ScopedSpan s(tr_, "probe.k8s.list_pods");
      const auto t0 = Clock::now();
      const std::vector<k8s::Pod> pods = cluster.api().pods().List();
      probes_.list_pods_us.Add(Ms(Clock::now() - t0) * 1e3);
      for (const k8s::Pod& p : pods) {
        probes_.max_pod_uid = std::max(probes_.max_pod_uid, p.meta.uid);
      }
    }
    {
      ScopedSpan s(tr_, "probe.kubeshare.free_gpus");
      const std::uint64_t hits = ks.sched().snapshot_hits();
      const std::uint64_t refreshes = ks.sched().snapshot_refreshes();
      const auto t0 = Clock::now();
      (void)ks.sched().FreePhysicalGpus();
      probes_.free_gpus_us.Add(Ms(Clock::now() - t0) * 1e3);
      probes_.probe_snapshot_hits += ks.sched().snapshot_hits() - hits;
      probes_.probe_snapshot_refreshes +=
          ks.sched().snapshot_refreshes() - refreshes;
    }
    {
      ScopedSpan s(tr_, "probe.vgpu.usage");
      std::vector<std::pair<vgpu::TokenBackendApi*, ContainerId>> live;
      std::size_t pending = 0;
      ks.sharepods().ForEach([&](const kubeshare::SharePod& sp) {
        if (sp.status.phase == kubeshare::SharePodPhase::kPending) ++pending;
        if (sp.status.phase != kubeshare::SharePodPhase::kRunning) return;
        k8s::Cluster::NodeHandle* node = cluster.FindNode(sp.spec.node_name);
        if (node == nullptr || node->crashed) return;
        const auto cid = node->runtime->ContainerIdOf(sp.status.workload_pod);
        if (cid) live.emplace_back(node->token_backend.get(), *cid);
      });
      probes_.sched_pending_peak =
          std::max(probes_.sched_pending_peak, pending);
      if (!live.empty()) {
        const auto t0 = Clock::now();
        for (const auto& [backend, cid] : live) (void)backend->UsageOf(cid);
        const double ns = Ms(Clock::now() - t0) * 1e6;
        probes_.usage_ns_per_query.push_back(
            ns / static_cast<double>(live.size()));
        probes_.usage_queries += live.size();
      }
    }
    probes_.sim_pending_peak =
        std::max(probes_.sim_pending_peak, cluster.sim().pending());
    probes_.pool_peak = std::max(probes_.pool_peak, ks.pool().size());
    std::size_t timers = 0;
    for (std::size_t n = 0; n < cluster.node_count(); ++n) {
      k8s::Cluster::NodeHandle& node = cluster.node(n);
      timers += node.token_backend->pending_timers();
      for (const auto& dev : node.gpus) {
        probes_.queue_sum +=
            static_cast<double>(node.token_backend->QueueLength(dev->uuid()));
        ++probes_.queue_samples;
      }
    }
    probes_.timers_peak = std::max(probes_.timers_peak, timers);
  }

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures_.push_back(what);
  }

  WorkloadKind kind_;
  Tracer* tr_;
  std::vector<JobInput> jobs_;
  chaos::FaultPlan plan_;
  std::vector<ServiceInput> services_in_;
  Time horizon_{0};

  // Declared before everything that holds pointers into the cluster, so
  // it is destroyed last.
  std::unique_ptr<Rig> rig_;
  std::unique_ptr<chaos::FaultInjector> injector_;
  std::vector<Service> services_;

  std::size_t next_job_ = 0;
  metrics::PrometheusExporter exporter_;
  DiscardBuf sink_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> check_failures_;
  ProbeLog probes_;
  double held_gpu_s_ = 0.0;  // vGPU pool size integrated over the slices
  std::uint64_t slices_ = 0;
};

/// Quantile `q` of a digest, interpolated linearly inside the bucket that
/// holds rank ceil(q * n). The digest itself answers with bucket lower
/// edges (about 3% apart), which would make medians over a few seeds read
/// the same bucket edge again and again; the interpolation finds the rank
/// range of that bucket by bisection over the digest's own Quantile.
double DigestQuantileSeconds(const metrics::LatencyDigest& d, double q) {
  const std::uint64_t n = d.count();
  if (n == 0) return 0.0;
  const auto edge_at = [&](std::uint64_t rank) {
    return d.Quantile((static_cast<double>(rank) - 0.5) /
                      static_cast<double>(n));
  };
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  const Duration edge = edge_at(rank);
  std::uint64_t lo = 1, hi = rank;  // first rank in the bucket
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (edge_at(mid) < edge) lo = mid + 1; else hi = mid;
  }
  const std::uint64_t first = lo;
  lo = rank;
  hi = n;  // last rank in the bucket
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (edge_at(mid) > edge) hi = mid - 1; else lo = mid;
  }
  const std::uint64_t last = lo;
  const auto e = static_cast<std::uint64_t>(edge.count());
  const std::uint64_t next = metrics::LatencyDigest::LowerEdge(
      metrics::LatencyDigest::IndexFor(e) + 1);
  const double frac = (static_cast<double>(rank - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  return (static_cast<double>(e) +
          frac * static_cast<double>(next - e)) / 1e6;
}

/// Nearest-rank percentile of `v` at `permille`; 0 when empty.
double At(const std::vector<double>& v, int permille) {
  return v.empty() ? 0.0 : Percentile(v, permille / 10.0);
}

void Rep::Finish(RepResult* r) {
  k8s::Cluster& cluster = rig_->cluster;
  kubeshare::KubeShare& ks = rig_->kubeshare;
  workload::WorkloadHost& host = rig_->host;
  sim::Simulation& sim = cluster.sim();
  const Time now = sim.Now();
  cluster.nvml().Stop();

  // ---- Correctness checks -----------------------------------------------
  Check(Done(), "workload did not drain before the horizon (" +
                    FormatTime(now) + ")");
  const Status pool = ks.pool().CheckIndexInvariants();
  Check(pool.ok(), "VgpuPool::CheckIndexInvariants: " + pool.ToString());
  const Status capacity = sim.CapacityStatus();
  Check(capacity.ok(), "Simulation::CapacityStatus: " + capacity.ToString());

  // ---- Fingerprint of every simulated output ------------------------------
  Fingerprint fp;
  fp.Add(static_cast<std::int64_t>(now.count()));
  std::vector<std::string> names;
  for (const auto& [name, rec] : host.records()) names.push_back(name);
  std::sort(names.begin(), names.end());
  std::vector<double> place_s;
  std::vector<double> run_s;
  for (const std::string& name : names) {
    const auto& rec = host.records().at(name);
    fp.Add(name);
    fp.Add(static_cast<std::int64_t>(rec.submitted.count()));
    fp.Add(static_cast<std::int64_t>(rec.started.count()));
    fp.Add(static_cast<std::int64_t>(rec.finished.count()));
    fp.Add(static_cast<std::uint64_t>(rec.has_started) << 2 |
           static_cast<std::uint64_t>(rec.has_finished) << 1 |
           static_cast<std::uint64_t>(rec.success));
    fp.Add(static_cast<std::int64_t>(rec.restarts));
    if (rec.has_started) place_s.push_back(ToSeconds(rec.started - rec.submitted));
    if (rec.has_finished && rec.success) {
      run_s.push_back(ToSeconds(rec.finished - rec.started));
    }
  }
  std::uint64_t succeeded = 0;
  std::uint64_t failed_pods = 0;
  std::uint64_t non_terminal = 0;
  std::vector<double> wait_s;
  std::vector<double> bind_s;
  ks.sharepods().ForEach([&](const kubeshare::SharePod& sp) {
    fp.Add(sp.meta.name);
    fp.Add(static_cast<std::uint64_t>(sp.status.phase));
    fp.Add(sp.spec.gpu_id.value());
    fp.Add(sp.spec.node_name);
    const Time created = sp.meta.creation_time;
    for (const auto& t : {sp.status.scheduled_time, sp.status.running_time,
                          sp.status.finished_time}) {
      fp.Add(static_cast<std::int64_t>(t ? t->count() : -1));
    }
    if (sp.status.phase == kubeshare::SharePodPhase::kSucceeded) ++succeeded;
    if (sp.status.phase == kubeshare::SharePodPhase::kFailed ||
        sp.status.phase == kubeshare::SharePodPhase::kRejected) {
      ++failed_pods;
    }
    if (!sp.terminal()) ++non_terminal;
    if (sp.status.scheduled_time) {
      wait_s.push_back(ToSeconds(*sp.status.scheduled_time - created));
      if (sp.status.running_time) {
        bind_s.push_back(
            ToSeconds(*sp.status.running_time - *sp.status.scheduled_time));
      }
    }
    if (tr_ != nullptr) {
      const std::int64_t c = created.count();
      const std::int64_t s =
          sp.status.scheduled_time ? sp.status.scheduled_time->count() : -1;
      const std::int64_t run =
          sp.status.running_time ? sp.status.running_time->count() : -1;
      const std::int64_t f =
          sp.status.finished_time ? sp.status.finished_time->count() : -1;
      if (s >= 0) tr_->AddSimulated("kubeshare.sched.wait", sp.meta.name, c, s);
      if (s >= 0 && run >= 0) {
        tr_->AddSimulated("kubeshare.devmgr.bind", sp.meta.name, s, run);
      }
      if (run >= 0 && f >= 0) {
        tr_->AddSimulated("workload.run", sp.meta.name, run, f);
      }
    }
  });
  std::uint64_t grants = 0;
  std::uint64_t sheds = 0;
  std::uint64_t queued = 0;
  double busy_s = 0.0;
  std::uint64_t gpus = 0;
  std::uint64_t nvml_samples = 0;
  for (std::size_t n = 0; n < cluster.node_count(); ++n) {
    k8s::Cluster::NodeHandle& node = cluster.node(n);
    fp.Add(node.token_backend->grants());
    grants += node.token_backend->grants();
    sheds += node.token_backend->admission_sheds();
    queued += node.token_backend->admission_queued();
    for (auto& dev : node.gpus) {
      dev->utilization().Flush(now);
      busy_s += ToSeconds(dev->utilization().TotalBusy());
      fp.Add(static_cast<std::int64_t>(dev->utilization().TotalBusy().count()));
      ++gpus;
      const auto& series = cluster.nvml().SamplesFor(dev->uuid());
      nvml_samples += series.size();
      for (const gpu::NvmlSample& s : series) fp.Add(s.gpu_util);
    }
  }
  // Busy GPU-seconds over GPU-seconds held in the vGPU pool: the Fig 9
  // utilization of the GPUs KubeShare has taken from Kubernetes.
  const double gpu_util = held_gpu_s_ > 0.0 ? busy_s / held_gpu_s_ : 0.0;
  fp.Add(gpu_util);

  metrics::LatencyDigest merged;
  std::uint64_t arrived = 0, served = 0, shed = 0, lost = 0, violations = 0;
  std::uint64_t scale_events = 0;
  for (Service& s : services_) {
    const metrics::ServiceSloSample x = s.frontend->Sample();
    Check(s.frontend->Drained(), x.service + " not drained");
    Check(x.served + x.shed + x.lost == x.arrived,
          x.service + ": served + shed + lost != arrived");
    for (std::uint64_t v : {x.arrived, x.served, x.shed, x.lost, x.violations,
                            x.queued_retries}) {
      fp.Add(v);
    }
    fp.Add(x.p50_s);
    fp.Add(x.p99_s);
    fp.Add(x.p999_s);
    fp.Add(static_cast<std::int64_t>(s.replicaset->desired()));
    fp.Add(s.replicaset->created_total());
    fp.Add(s.scaler->scale_ups());
    fp.Add(s.scaler->scale_downs());
    scale_events += s.scaler->scale_ups() + s.scaler->scale_downs();
    merged.Merge(s.frontend->digest());
    arrived += x.arrived;
    served += x.served;
    shed += x.shed;
    lost += x.lost;
    violations += x.violations;
  }
  chaos::ChaosStats chaos_stats;
  if (injector_ != nullptr) {
    chaos_stats = injector_->stats();
    fp.Add(chaos_stats.faults_injected);
    fp.Add(chaos_stats.faults_skipped);
    fp.Add(static_cast<std::int64_t>(chaos_stats.total_recovery_time.count()));
    fp.Add(static_cast<std::int64_t>(chaos_stats.devmgr_recovery_time.count()));
    fp.Add(static_cast<std::int64_t>(chaos_stats.sched_recovery_time.count()));
  }

  // ---- Simulated end-to-end metrics --------------------------------------
  std::sort(place_s.begin(), place_s.end());
  const auto reading = [](std::string name, std::string unit, double value,
                          std::uint64_t n, std::string note = {}) {
    Reading x;
    x.name = std::move(name);
    x.unit = std::move(unit);
    x.value = value;
    x.samples = n;
    x.note = std::move(note);
    return x;
  };
  if (kind_ != WorkloadKind::kServe) {
    const std::uint64_t submitted = jobs_.size();
    Check(next_job_ == jobs_.size() &&
              ks.sharepods().size() == jobs_.size(),
          "not every job was submitted");
    Check(non_terminal == 0, std::to_string(non_terminal) +
                                 " sharePods not terminal");
    Check(host.completed() + host.failed() == submitted,
          "completed + failed != submitted");
    const double makespan_min =
        host.completion_times().empty()
            ? 0.0
            : ToSeconds(host.completion_times().back() - jobs_.front().at) /
                  60.0;
    const double jobs_per_min =
        makespan_min > 0.0 ? static_cast<double>(host.completed()) /
                                 makespan_min
                           : 0.0;
    const double fail_frac = static_cast<double>(failed_pods) /
                             static_cast<double>(submitted);
    const int tail = TailPermille(place_s.size());
    r->e2e["ok_frac"] = static_cast<double>(succeeded) /
                        static_cast<double>(submitted);
    r->e2e["done_per_min"] = jobs_per_min;
    r->e2e["lat_p50_s"] = At(place_s, 500);
    r->e2e["lat_tail_s"] = At(place_s, tail);
    r->report.push_back(reading("jobs_per_min", "1/min", jobs_per_min,
                                host.completed()));
    r->report.push_back(
        reading("fail_frac", "fraction", fail_frac, submitted));
    r->report.push_back(
        reading("place_p50_s", "s", At(place_s, 500), place_s.size()));
    r->report.push_back(reading(
        kind_ == WorkloadKind::kChurn ? "place_p99_s" : "place_tail_s", "s",
        At(place_s, tail), place_s.size(), PermilleName(tail)));
  } else {
    const double miss = arrived == 0
                            ? 1.0
                            : static_cast<double>(violations + shed + lost) /
                                  static_cast<double>(arrived);
    const int tail = TailPermille(merged.count());
    r->e2e["ok_frac"] = 1.0 - miss;
    r->e2e["done_per_min"] = static_cast<double>(served - violations) /
                             (ToSeconds(kServeArrivals) / 60.0);
    r->e2e["lat_p50_s"] = DigestQuantileSeconds(merged, 0.5);
    r->e2e["lat_tail_s"] = DigestQuantileSeconds(merged, tail / 1000.0);
    r->report.push_back(reading(
        "fail_frac", "fraction",
        arrived == 0 ? 1.0
                     : static_cast<double>(shed + lost) /
                           static_cast<double>(arrived),
        arrived));
    r->report.push_back(reading("serve_p50_ms", "ms",
                                DigestQuantileSeconds(merged, 0.5) * 1e3,
                                merged.count()));
    r->report.push_back(reading("serve_p99_ms", "ms",
                                DigestQuantileSeconds(merged, 0.99) * 1e3,
                                merged.count()));
    r->report.push_back(reading("serve_p999_ms", "ms",
                                DigestQuantileSeconds(merged, 0.999) * 1e3,
                                merged.count()));
    r->report.push_back(reading("slo_miss_rate", "fraction", miss, arrived));
    const int ptail = TailPermille(place_s.size());
    r->report.push_back(reading("replica_place_p50_s", "s",
                                At(place_s, 500), place_s.size()));
    r->report.push_back(reading("replica_place_tail_s", "s",
                                At(place_s, ptail), place_s.size(),
                                PermilleName(ptail)));
  }
  r->e2e["gpu_util"] = gpu_util;
  r->report.push_back(reading("gpu_util", "fraction", gpu_util, slices_));
  r->fingerprint = fp.value();
  r->inputs_fingerprint = InputsFingerprint();
  r->attempted = attempted_;
  r->failed = failed_;
  r->check_failures = check_failures_;

  if (tr_ == nullptr) return;

  // ---- Per-layer metrics (traced repetition) -----------------------------
  auto& L = r->layers;
  const auto layer = [&](const std::string& name, const std::string& unit,
                         double value, std::uint64_t n = 0,
                         std::string clock = "sim", std::string note = {}) {
    Reading x = reading(name, unit, value, n, std::move(note));
    x.clock = std::move(clock);
    L.push_back(std::move(x));
  };
  std::uint64_t events = 0;
  std::int64_t run_ns = 0;
  std::vector<double> slice_ns_per_event;
  for (const auto& [ev, ns] : probes_.slices) {
    events += ev;
    run_ns += ns;
    if (ev > 0) {
      slice_ns_per_event.push_back(static_cast<double>(ns) /
                                   static_cast<double>(ev));
    }
  }
  layer("sim.events", "count", static_cast<double>(sim.executed()));
  layer("sim.ns_per_event", "ns",
        events ? static_cast<double>(run_ns) / static_cast<double>(events)
               : 0.0,
        events, "host");
  layer("sim.pending_peak", "count",
        static_cast<double>(probes_.sim_pending_peak));
  layer("sim.ns_per_event_growth", "ratio", Growth(slice_ns_per_event),
        slice_ns_per_event.size(), "host");

  const k8s::ApiServer& api = cluster.api();
  layer("k8s.pods_created", "count",
        static_cast<double>(probes_.max_pod_uid));
  layer("k8s.store_objects_end", "count",
        static_cast<double>(api.pods().size() + api.nodes().size() +
                            api.leases().size() + ks.sharepods().size()));
  layer("k8s.events_recorded", "count",
        static_cast<double>(api.events().events().size()));
  layer("k8s.conflicts", "count",
        static_cast<double>(api.pods().update_conflicts() +
                            api.nodes().update_conflicts() +
                            ks.sharepods().update_conflicts()));
  layer("k8s.list_pods_us", "us", probes_.list_pods_us.mean(),
        probes_.list_pods_us.count(), "host");

  kubeshare::KubeShareSched& sched = ks.sched();
  layer("kubeshare.submit_us", "us", probes_.submit_us.mean(),
        probes_.submit_us.count(), "host");
  layer("kubeshare.sched.scheduled", "count",
        static_cast<double>(sched.scheduled_count()));
  layer("kubeshare.sched.retries", "count",
        static_cast<double>(sched.retry_count()));
  layer("kubeshare.sched.decision_us", "us", sched.decision_stats().mean(),
        sched.decision_stats().count(), "host");
  const double own_hits = static_cast<double>(sched.snapshot_hits() -
                                              probes_.probe_snapshot_hits);
  const double own_refreshes = static_cast<double>(
      sched.snapshot_refreshes() - probes_.probe_snapshot_refreshes);
  layer("kubeshare.sched.snapshot_hit_ratio", "ratio",
        own_hits + own_refreshes > 0 ? own_hits / (own_hits + own_refreshes)
                                     : 0.0,
        static_cast<std::uint64_t>(own_hits + own_refreshes));
  layer("kubeshare.free_gpus_us", "us", probes_.free_gpus_us.mean(),
        probes_.free_gpus_us.count(), "host");
  layer("kubeshare.sched.pending_peak", "count",
        static_cast<double>(probes_.sched_pending_peak));
  std::sort(wait_s.begin(), wait_s.end());
  std::sort(bind_s.begin(), bind_s.end());
  const int wait_tail = TailPermille(wait_s.size());
  const int bind_tail = TailPermille(bind_s.size());
  layer("kubeshare.sched.wait_p50_s", "s", At(wait_s, 500), wait_s.size());
  layer("kubeshare.sched.wait_tail_s", "s", At(wait_s, wait_tail),
        wait_s.size(), "sim", PermilleName(wait_tail));
  layer("kubeshare.devmgr.bind_p50_s", "s", At(bind_s, 500), bind_s.size());
  layer("kubeshare.devmgr.bind_tail_s", "s", At(bind_s, bind_tail),
        bind_s.size(), "sim", PermilleName(bind_tail));
  layer("kubeshare.pool.peak", "count",
        static_cast<double>(probes_.pool_peak));
  layer("kubeshare.vgpus_created", "count",
        static_cast<double>(ks.devmgr().vgpus_created()));
  layer("kubeshare.scale_events", "count", static_cast<double>(scale_events));

  layer("vgpu.token.grants", "count", static_cast<double>(grants));
  layer("vgpu.token.pending_timers_peak", "count",
        static_cast<double>(probes_.timers_peak));
  double usage_mean = 0.0;
  for (double v : probes_.usage_ns_per_query) usage_mean += v;
  if (!probes_.usage_ns_per_query.empty()) {
    usage_mean /= static_cast<double>(probes_.usage_ns_per_query.size());
  }
  layer("vgpu.token.usage_query_ns", "ns", usage_mean, probes_.usage_queries,
        "host");
  layer("vgpu.token.usage_query_growth", "ratio",
        Growth(probes_.usage_ns_per_query),
        probes_.usage_ns_per_query.size(), "host");
  layer("vgpu.token.queue_mean", "count",
        probes_.queue_samples
            ? probes_.queue_sum / static_cast<double>(probes_.queue_samples)
            : 0.0,
        probes_.queue_samples);
  layer("vgpu.admission.sheds", "count", static_cast<double>(sheds));
  layer("vgpu.admission.queued", "count", static_cast<double>(queued));

  layer("gpu.busy_frac", "fraction",
        gpus && now.count() > 0
            ? busy_s / (static_cast<double>(gpus) * ToSeconds(now))
            : 0.0);
  layer("gpu.nvml_samples", "count", static_cast<double>(nvml_samples));

  layer("workload.completed", "count", static_cast<double>(host.completed()));
  layer("workload.failed", "count", static_cast<double>(host.failed()));
  layer("workload.restarts", "count", static_cast<double>(host.restarts()));
  std::sort(run_s.begin(), run_s.end());
  layer("workload.run_p50_s", "s", At(run_s, 500), run_s.size());

  layer("serving.arrived", "count", static_cast<double>(arrived));
  layer("serving.served", "count", static_cast<double>(served));
  layer("serving.shed", "count", static_cast<double>(shed));
  layer("serving.lost", "count", static_cast<double>(lost));
  layer("serving.events_per_request", "ratio",
        arrived ? static_cast<double>(sim.executed()) /
                      static_cast<double>(arrived)
                : 0.0,
        arrived);

  std::vector<double> scrapes = probes_.scrape_us;
  std::sort(scrapes.begin(), scrapes.end());
  layer("metrics.scrape_us_p50", "us", At(scrapes, 500), scrapes.size(),
        "host");
  layer("metrics.scrape_us_max", "us", scrapes.empty() ? 0.0 : scrapes.back(),
        scrapes.size(), "host");
  layer("metrics.scrape_samples", "count",
        static_cast<double>(probes_.scrape_samples));

  layer("chaos.faults", "count",
        static_cast<double>(chaos_stats.faults_injected));
  layer("chaos.devmgr_mttr_s", "s",
        ToSeconds(chaos_stats.MeanDevMgrRecovery()),
        chaos_stats.devmgr_recoveries_measured);
  layer("chaos.sched_mttr_s", "s", ToSeconds(chaos_stats.MeanSchedRecovery()),
        chaos_stats.sched_recoveries_measured);
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (WorkloadKind k : {WorkloadKind::kTrainSoak, WorkloadKind::kChurn,
                         WorkloadKind::kServe}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kTrainSoak: return "train-soak";
    case WorkloadKind::kChurn: return "churn";
    case WorkloadKind::kServe: return "serve";
  }
  return "?";
}

RepResult RunRep(WorkloadKind kind, std::uint64_t seed, Tracer* tracer,
                 RefKernel* ref) {
  RepResult r;
  Rep rep(kind, seed, tracer);
  const auto t0 = Clock::now();
  rep.Setup();
  r.setup_s = Secs(Clock::now() - t0);
  {
    ScopedSpan span(tracer, "run");
    rep.Run(ref, &r);
  }
  rep.Finish(&r);
  return r;
}

double SetupOnly(WorkloadKind kind, std::uint64_t seed) {
  Rep rep(kind, seed, nullptr);
  const double t0 = ThreadCpuSeconds();
  rep.Setup();
  return ThreadCpuSeconds() - t0;
}

}  // namespace perfbench
