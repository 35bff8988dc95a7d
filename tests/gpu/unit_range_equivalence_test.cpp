// Differential test for range retirement. A fused kernel run reaches the
// job as a few (first finish, step, count) ranges; the per-kernel reference
// device delivers the same units as ranges of one. Every delivered range is
// expanded into per-unit finish times at the job's CudaApi boundary —
// exactly what the job sees — and the fused and reference runs of seeded
// training, phased-training and inference clusters must expand to the same
// units, launch by launch. The clusters include a token-daemon restart, a
// DevMgr crash, and native pods that skip the vGPU frontend. Each run also
// checks the delivery contract on its own: no empty range, no launch
// receives more units than it declared, and a stream's launches are served
// strictly in FIFO order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/injector.hpp"
#include "common/rng.hpp"
#include "cuda/api.hpp"
#include "k8s/cluster.hpp"
#include "k8s/resources.hpp"
#include "kubeshare/kubeshare.hpp"
#include "oracles/cluster_parts.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::gpu {
namespace {

/// What the jobs of one run saw, per job instance and stream.
struct RunLog {
  struct Launch {
    int count = 0;
    int delivered = 0;
  };
  struct StreamLog {
    /// One "launch finish" line per unit, in delivery order.
    std::vector<std::string> units;
    std::vector<Launch> launches;
    std::size_t serving = 0;  // launch currently receiving units (FIFO)
  };
  std::map<std::string, StreamLog> streams;
  std::map<std::string, int> instances;  // job name -> containers started
  std::vector<std::string> violations;
  std::size_t deliveries = 0;
  std::size_t units = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;

  void Deliver(const std::string& key, std::size_t launch, UnitRange r) {
    ++deliveries;
    StreamLog& s = streams[key];
    if (r.count < 1) {
      violations.push_back(key + ": empty range");
      return;
    }
    if (launch < s.serving) {
      violations.push_back(key + ": launch " + std::to_string(launch) +
                           " served after launch " +
                           std::to_string(s.serving));
    }
    for (std::size_t l = s.serving; l < launch; ++l) {
      if (s.launches[l].delivered != s.launches[l].count) {
        violations.push_back(key + ": launch " + std::to_string(launch) +
                             " overtook unfinished launch " +
                             std::to_string(l));
      }
    }
    s.serving = std::max(s.serving, launch);
    Launch& l = s.launches[launch];
    l.delivered += r.count;
    if (l.delivered > l.count) {
      violations.push_back(key + ": launch " + std::to_string(launch) +
                           " got " + std::to_string(l.delivered) + " of " +
                           std::to_string(l.count) + " units");
    }
    for (int i = 0; i < r.count; ++i) {
      s.units.push_back(std::to_string(launch) + " " +
                        std::to_string(r.At(i).count()));
    }
    units += static_cast<std::size_t>(r.count);
  }
};

/// CudaApi decorator between a job and its real API that logs every unit
/// range the job receives; every other call passes through unchanged.
class RecordingApi final : public cuda::CudaApi {
 public:
  RecordingApi(cuda::CudaApi* inner, RunLog* log, std::string job)
      : inner_(inner), log_(log), job_(std::move(job)) {}

  cuda::CudaResult LaunchKernelStream(const KernelDesc& desc, int count,
                                      cuda::StreamId stream,
                                      UnitDoneFn on_unit) override {
    const std::string key = job_ + "/s" + std::to_string(stream);
    auto& launches = log_->streams[key].launches;
    const std::size_t launch = launches.size();
    launches.push_back({count, 0});
    return inner_->LaunchKernelStream(
        desc, count, stream,
        [log = log_, key, launch, fn = std::move(on_unit)](UnitRange r) {
          log->Deliver(key, launch, r);
          if (fn) fn(r);
        });
  }

  cuda::CudaResult MemAlloc(DevicePtr* out, std::uint64_t bytes) override {
    return inner_->MemAlloc(out, bytes);
  }
  cuda::CudaResult MemFree(DevicePtr ptr) override {
    return inner_->MemFree(ptr);
  }
  cuda::CudaResult ArrayCreate(DevicePtr* out, std::uint64_t width,
                               std::uint64_t height,
                               std::uint64_t element_bytes) override {
    return inner_->ArrayCreate(out, width, height, element_bytes);
  }
  cuda::CudaResult MemPrefetch(std::uint64_t bytes, Duration duration,
                               cuda::HostFn on_complete) override {
    return inner_->MemPrefetch(bytes, duration, std::move(on_complete));
  }
  cuda::CudaResult StreamCreate(cuda::StreamId* out) override {
    return inner_->StreamCreate(out);
  }
  cuda::CudaResult StreamDestroy(cuda::StreamId stream) override {
    return inner_->StreamDestroy(stream);
  }
  cuda::CudaResult LaunchKernel(const KernelDesc& desc, cuda::StreamId stream,
                                cuda::HostFn on_complete) override {
    return inner_->LaunchKernel(desc, stream, std::move(on_complete));
  }
  std::size_t CancelPending(cuda::StreamId stream) override {
    return inner_->CancelPending(stream);
  }
  std::size_t RetiredUnits(cuda::StreamId stream) const override {
    return inner_->RetiredUnits(stream);
  }
  Duration ExclusiveKernelTime(const KernelDesc& desc) const override {
    return inner_->ExclusiveKernelTime(desc);
  }
  Time Now() const override { return inner_->Now(); }
  cuda::CudaResult Synchronize(cuda::HostFn fn) override {
    return inner_->Synchronize(std::move(fn));
  }
  cuda::CudaResult EventCreate(cuda::EventId* out) override {
    return inner_->EventCreate(out);
  }
  cuda::CudaResult EventRecord(cuda::EventId event,
                               cuda::StreamId stream) override {
    return inner_->EventRecord(event, stream);
  }
  cuda::CudaResult EventQuery(cuda::EventId event) override {
    return inner_->EventQuery(event);
  }
  cuda::CudaResult EventSynchronize(cuda::EventId event,
                                    cuda::HostFn fn) override {
    return inner_->EventSynchronize(event, std::move(fn));
  }
  cuda::CudaResult EventElapsedTime(Duration* out, cuda::EventId start,
                                    cuda::EventId end) override {
    return inner_->EventElapsedTime(out, start, end);
  }
  cuda::CudaResult EventDestroy(cuda::EventId event) override {
    return inner_->EventDestroy(event);
  }
  std::uint64_t AllocatedBytes() const override {
    return inner_->AllocatedBytes();
  }
  std::size_t PendingKernels() const override {
    return inner_->PendingKernels();
  }

 private:
  cuda::CudaApi* inner_;
  RunLog* log_;
  std::string job_;
};

/// Runs a production job behind a RecordingApi.
class RecordingJob final : public workload::Job {
 public:
  RecordingJob(std::unique_ptr<workload::Job> inner, RunLog* log,
               std::string key)
      : log_(log), key_(std::move(key)), inner_(std::move(inner)) {}

  void Start(cuda::CudaApi* api, sim::Simulation* sim, DoneFn done) override {
    api_ = std::make_unique<RecordingApi>(api, log_, key_);
    inner_->Start(api_.get(), sim, std::move(done));
  }
  void Stop() override { inner_->Stop(); }

 private:
  RunLog* log_;
  std::string key_;
  std::unique_ptr<RecordingApi> api_;
  std::unique_ptr<workload::Job> inner_;  // destroyed before api_
};

enum class Kind { kTraining, kPhased, kInference };
enum class FaultChoice { kNone, kTokenDaemonRestart, kDevMgrCrash };
/// KubeShare sharePods run behind the vGPU frontend hook; native pods (one
/// whole GPU each) talk to the driver context directly, so their queued
/// requests coalesce there and a range is split by the context alone.
enum class Pods { kSharePods, kNative };

constexpr Duration kKernel = Millis(20);

std::unique_ptr<workload::Job> MakeJob(Kind kind, double demand, int index,
                                       std::uint64_t seed) {
  const int units = std::max(
      1, static_cast<int>(std::lround(demand / ToSeconds(kKernel) * 6.0)));
  switch (kind) {
    case Kind::kTraining: {
      workload::TrainingSpec spec;
      spec.steps = units;
      spec.step_kernel = kKernel;
      return std::make_unique<workload::TrainingJob>(spec);
    }
    case Kind::kPhased: {
      workload::PhasedTrainingSpec spec;
      spec.epochs = 3;
      spec.steps_per_epoch = std::max(1, units / 3);
      spec.step_kernel = kKernel;
      spec.io_per_epoch = Millis(400);
      return std::make_unique<workload::PhasedTrainingJob>(spec);
    }
    case Kind::kInference: {
      workload::InferenceSpec spec;
      spec.total_requests = units;
      spec.request_rate_hz = demand / ToSeconds(kKernel);
      spec.kernel_per_request = kKernel;
      spec.seed = seed + static_cast<std::uint64_t>(index) * 7919 + 1;
      return std::make_unique<workload::InferenceJob>(spec);
    }
  }
  return nullptr;
}

RunLog RunCluster(const k8s::ClusterParts& parts, std::uint64_t seed,
                  Kind kind, FaultChoice fault, Pods pods) {
  // Heap-owned: range callbacks can still fire while the cluster unwinds.
  auto log = std::make_unique<RunLog>();
  {
    k8s::ClusterConfig ccfg;
    ccfg.nodes = 3;
    ccfg.gpus_per_node = 2;
    k8s::Cluster cluster(ccfg, parts);
    kubeshare::KubeShare kubeshare(&cluster);
    workload::WorkloadHost host(&cluster);

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

    // Seeded Poisson submissions.
    Rng rng(seed);
    RunLog* sink = log.get();
    Time at{0};
    for (int i = 0; i < 12; ++i) {
      const double demand = rng.TruncatedNormal(0.4, 0.15, 0.05, 1.0);
      const std::string name = "job-" + std::to_string(i);
      cluster.sim().ScheduleAt(at, [&, sink, name, demand, i] {
        host.ExpectJob(name, [sink, name, kind, demand, i, seed] {
          const int instance = sink->instances[name]++;
          return std::make_unique<RecordingJob>(
              MakeJob(kind, demand, i, seed), sink,
              name + "#" + std::to_string(instance));
        });
        if (pods == Pods::kNative) {
          k8s::Pod pod;
          pod.meta.name = name;
          pod.spec.requests.Set(k8s::kResourceCpu, 1000);
          pod.spec.requests.Set(k8s::kResourceNvidiaGpu, 1);
          EXPECT_TRUE(cluster.api().pods().Create(pod).ok()) << name;
          return;
        }
        kubeshare::SharePod sp;
        sp.meta.name = name;
        sp.spec.pod.requests.Set(k8s::kResourceCpu, 1000);
        sp.spec.gpu.gpu_request = demand;
        sp.spec.gpu.gpu_limit = 1.0;
        sp.spec.gpu.gpu_mem = 0.2;
        EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok()) << name;
      });
      at += rng.ExponentialInterarrival(Seconds(1.0));
    }
    cluster.sim().RunUntil(Seconds(40));
    sink->completed = host.completed();
    sink->failed = host.failed();
  }
  return std::move(*log);
}

void ExpectSameUnits(const RunLog& fused, const RunLog& reference,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(fused.completed, reference.completed);
  EXPECT_EQ(fused.failed, reference.failed);
  EXPECT_EQ(fused.units, reference.units);
  for (const RunLog* run : {&fused, &reference}) {
    for (const std::string& v : run->violations) ADD_FAILURE() << v;
  }
  ASSERT_EQ(fused.streams.size(), reference.streams.size());
  for (const auto& [key, stream] : fused.streams) {
    const auto it = reference.streams.find(key);
    ASSERT_NE(it, reference.streams.end()) << key;
    const auto& a = stream.units;
    const auto& b = it->second.units;
    const auto diverge =
        std::mismatch(a.begin(), a.end(), b.begin(), b.end());
    if (diverge.first != a.end() || diverge.second != b.end()) {
      const auto at = static_cast<std::size_t>(diverge.first - a.begin());
      ADD_FAILURE() << key << " diverged at unit " << at << " of "
                    << a.size() << "/" << b.size() << ": fused '"
                    << (diverge.first != a.end() ? *diverge.first : "<end>")
                    << "' reference '"
                    << (diverge.second != b.end() ? *diverge.second : "<end>")
                    << "'";
    }
  }
}

void Compare(std::uint64_t seed, Kind kind, FaultChoice fault,
             const std::string& label, Pods pods = Pods::kSharePods) {
  const RunLog fused = RunCluster({}, seed, kind, fault, pods);
  const RunLog reference =
      RunCluster(oracles::ReferenceGpus(), seed, kind, fault, pods);
  ExpectSameUnits(fused, reference, label);
  // The runs did real work, and the reference delivered one range per unit.
  EXPECT_GT(fused.completed, 0u) << label;
  EXPECT_EQ(reference.deliveries, reference.units) << label;
  if (kind != Kind::kInference) {
    // Back-to-back steps are where ranges pay: far fewer deliveries.
    EXPECT_LT(2 * fused.deliveries, fused.units) << label;
  }
}

TEST(UnitRangeEquivalence, TrainingClusterExpandsToReferenceUnits) {
  for (std::uint64_t seed : {51u, 52u, 53u}) {
    Compare(seed, Kind::kTraining, FaultChoice::kNone,
            "training seed " + std::to_string(seed));
  }
}

TEST(UnitRangeEquivalence, PhasedTrainingClusterExpandsToReferenceUnits) {
  for (std::uint64_t seed : {61u, 62u}) {
    Compare(seed, Kind::kPhased, FaultChoice::kNone,
            "phased seed " + std::to_string(seed));
  }
}

TEST(UnitRangeEquivalence, InferenceClusterExpandsToReferenceUnits) {
  for (std::uint64_t seed : {71u, 72u}) {
    Compare(seed, Kind::kInference, FaultChoice::kNone,
            "inference seed " + std::to_string(seed));
  }
}

TEST(UnitRangeEquivalence, NativeInferenceClusterExpandsToReferenceUnits) {
  for (std::uint64_t seed : {73u, 74u}) {
    Compare(seed, Kind::kInference, FaultChoice::kNone,
            "native inference seed " + std::to_string(seed), Pods::kNative);
  }
}

TEST(UnitRangeEquivalence, SameUnitsAcrossTokenDaemonRestart) {
  Compare(81, Kind::kTraining, FaultChoice::kTokenDaemonRestart,
          "daemon-restart training");
  Compare(82, Kind::kInference, FaultChoice::kTokenDaemonRestart,
          "daemon-restart inference");
}

TEST(UnitRangeEquivalence, SameUnitsAcrossDevMgrCrash) {
  Compare(91, Kind::kPhased, FaultChoice::kDevMgrCrash,
          "devmgr-crash phased");
  Compare(92, Kind::kTraining, FaultChoice::kDevMgrCrash,
          "devmgr-crash training");
}

}  // namespace
}  // namespace ks::gpu
