// KubeShare-Sched's pending queue against the linear scan it replaced.
//
// SchedQueue caches each entry's priority at Push and keeps an ordered
// index; the scan it replaced re-read every queued sharePod's priority from
// the store on every pick. The two must pick the same name for every
// sequence of operations, including deletes of queued sharePods,
// re-creation of a deleted name under a different priority, names pushed
// after their object is already gone, parked-waiter flushes and
// crash/relist cycles. The scan lives here, as the oracle only.
//
// The cluster-level tests pin what the queue order feeds into: the
// placements of a seeded churn run with priorities 0-3, sharePod deletes,
// re-creates and scheduler crashes, fingerprinted when the linear scan
// was the production pick.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "kubeshare/kubeshare.hpp"
#include "kubeshare/scheduler.hpp"
#include "workload/host.hpp"
#include "workload/job.hpp"

namespace ks::kubeshare {
namespace {

/// The pre-index KubeShare-Sched pick: arrival-ordered deque, and per pick
/// a scan that reads every entry's priority from the store (missing
/// object = priority 0) and keeps the first strictly-higher one.
class LinearScanQueue {
 public:
  explicit LinearScanQueue(const k8s::ObjectStore<SharePod>* store)
      : store_(store) {}

  bool Push(const std::string& name) {
    if (!queued_.insert(name).second) return false;
    queue_.push_back(name);
    return true;
  }

  std::string Pop() {
    auto pick = queue_.begin();
    int best = PriorityOf(*pick);
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
      const int priority = PriorityOf(*it);
      if (priority > best) {
        best = priority;
        pick = it;
      }
    }
    const std::string name = *pick;
    queue_.erase(pick);
    queued_.erase(name);
    return name;
  }

  void Clear() {
    queue_.clear();
    queued_.clear();
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  int PriorityOf(const std::string& name) const {
    auto sp = store_->Get(name);
    return sp.ok() ? sp->spec.priority : 0;
  }

  const k8s::ObjectStore<SharePod>* store_;
  std::deque<std::string> queue_;
  std::unordered_set<std::string> queued_;
};

SharePod MakeSharePod(const std::string& name, int priority) {
  SharePod sp;
  sp.meta.name = name;
  sp.spec.gpu.gpu_request = 0.2;
  sp.spec.gpu.gpu_limit = 0.4;
  sp.spec.gpu.gpu_mem = 0.1;
  sp.spec.priority = priority;
  return sp;
}

struct DiffStats {
  int pops = 0;
  int deletes_of_queued = 0;
  int recreates = 0;
  int stale_pushes = 0;  // pushes of names with no object
  int flushes = 0;
  int crashes = 0;
};

/// Drives SchedQueue and the oracle with one seeded operation sequence
/// against one store; every pick must agree.
DiffStats RunDifferential(std::uint64_t seed, int steps) {
  Rng rng(seed);
  sim::Simulation sim;
  k8s::ObjectStore<SharePod> store(&sim);
  SchedQueue queue(&store);
  LinearScanQueue oracle(&store);
  DiffStats stats;

  std::vector<std::string> names;           // every name ever created
  std::vector<std::string> deferred;        // watch deliveries in flight
  std::set<std::string> parked;             // unschedulable, awaiting flush
  std::set<std::string> in_queue;           // mirror of the queued names
  int next_id = 0;

  auto priority = [&] { return static_cast<int>(rng.UniformInt(-2, 3)); };
  auto pick = [&](const auto& from) {
    auto it = from.begin();
    std::advance(it, rng.UniformInt(0, static_cast<std::int64_t>(
                                            from.size()) - 1));
    return *it;
  };
  auto push = [&](const std::string& name) {
    if (!store.Contains(name)) ++stats.stale_pushes;
    const bool fresh = queue.Push(name);
    EXPECT_EQ(fresh, oracle.Push(name)) << "seed " << seed << " " << name;
    if (fresh) in_queue.insert(name);
  };

  for (int step = 0; step < steps; ++step) {
    const double op = rng.Uniform(0.0, 1.0);
    if (op < 0.22) {
      // A new sharePod; its watch delivery may trail other mutations.
      const std::string name = "sp-" + std::to_string(next_id++);
      EXPECT_TRUE(store.Create(MakeSharePod(name, priority())).ok());
      names.push_back(name);
      if (rng.Chance(0.5)) {
        push(name);
      } else {
        deferred.push_back(name);
      }
    } else if (op < 0.30) {
      // Deliver the in-flight watch events (the object may be gone).
      for (const std::string& name : deferred) push(name);
      deferred.clear();
    } else if (op < 0.40) {
      // Delete a queued sharePod, or one whose watch event is in flight
      // (its push then finds no object).
      if (!deferred.empty() && rng.Chance(0.4)) {
        (void)store.Delete(pick(deferred));
        continue;
      }
      if (in_queue.empty()) continue;
      if (store.Delete(pick(in_queue)).ok()) ++stats.deletes_of_queued;
    } else if (op < 0.48) {
      // Re-create a deleted name, usually under a different priority; the
      // stale queue entry (if any) now resolves to the new object.
      if (names.empty()) continue;
      const std::string name = pick(names);
      if (store.Contains(name)) continue;
      EXPECT_TRUE(store.Create(MakeSharePod(name, priority())).ok());
      ++stats.recreates;
      if (rng.Chance(0.5)) push(name);
    } else if (op < 0.52) {
      // A status write: bumps versions, never the priority.
      if (names.empty()) continue;
      auto sp = store.Get(pick(names));
      if (!sp.ok()) continue;
      sp->status.message = "touched at step " + std::to_string(step);
      EXPECT_TRUE(store.Update(*sp).ok());
    } else if (op < 0.60) {
      // Parked-waiter flush: the whole group re-joins before the next pick.
      ++stats.flushes;
      for (const std::string& name : parked) push(name);
      parked.clear();
    } else if (op < 0.62) {
      // Scheduler crash + restart: queues die, the relist replays every
      // stored sharePod in name order.
      ++stats.crashes;
      queue.Clear();
      oracle.Clear();
      in_queue.clear();
      parked.clear();
      deferred.clear();
      for (const SharePod& sp : store.List()) push(sp.meta.name);
    } else {
      if (oracle.empty()) {
        EXPECT_TRUE(queue.empty());
        continue;
      }
      const std::string want = oracle.Pop();
      const std::string got = queue.Pop();
      ++stats.pops;
      EXPECT_EQ(got, want) << "seed " << seed << " step " << step;
      if (got != want) return stats;
      in_queue.erase(got);
      if (rng.Chance(0.3)) parked.insert(got);  // Algorithm 1: no capacity
    }
    EXPECT_EQ(queue.size(), oracle.size());
  }
  while (!oracle.empty()) {
    const std::string want = oracle.Pop();
    EXPECT_EQ(queue.Pop(), want) << "seed " << seed << " drain";
    ++stats.pops;
  }
  EXPECT_TRUE(queue.empty());
  return stats;
}

class SchedQueueDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SchedQueueDifferential, PickSequenceMatchesLinearScan) {
  const DiffStats stats = RunDifferential(GetParam(), 4000);
  // The sequence must actually exercise every path that can stale a
  // cached priority.
  EXPECT_GT(stats.pops, 1000);
  EXPECT_GT(stats.deletes_of_queued, 100);
  EXPECT_GT(stats.recreates, 40);
  EXPECT_GT(stats.stale_pushes, 20);
  EXPECT_GT(stats.flushes, 150);
  EXPECT_GT(stats.crashes, 30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedQueueDifferential,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(SchedQueue, HighestPriorityFirstFifoAmongEquals) {
  sim::Simulation sim;
  k8s::ObjectStore<SharePod> store(&sim);
  SchedQueue queue(&store);
  const std::vector<std::pair<std::string, int>> pods = {
      {"a", 0}, {"b", 2}, {"c", -1}, {"d", 2}, {"e", 0}};
  for (const auto& [name, priority] : pods) {
    ASSERT_TRUE(store.Create(MakeSharePod(name, priority)).ok());
    EXPECT_TRUE(queue.Push(name));
  }
  EXPECT_FALSE(queue.Push("b"));  // already queued
  std::vector<std::string> order;
  while (!queue.empty()) order.push_back(queue.Pop());
  EXPECT_EQ(order, (std::vector<std::string>{"b", "d", "a", "e", "c"}));
}

TEST(SchedQueue, DeleteAndRecreateRereadsPriority) {
  sim::Simulation sim;
  k8s::ObjectStore<SharePod> store(&sim);
  SchedQueue queue(&store);
  ASSERT_TRUE(store.Create(MakeSharePod("low", 0)).ok());
  ASSERT_TRUE(store.Create(MakeSharePod("high", 3)).ok());
  queue.Push("low");
  queue.Push("high");
  // "high" is deleted while queued (now priority 0, behind "low"), and
  // "low" is re-created at priority 5.
  ASSERT_TRUE(store.Delete("high").ok());
  ASSERT_TRUE(store.Delete("low").ok());
  ASSERT_TRUE(store.Create(MakeSharePod("low", 5)).ok());
  EXPECT_EQ(queue.Pop(), "low");
  EXPECT_EQ(queue.Pop(), "high");
}

TEST(SchedQueue, NamePushedBeforeItsObjectReturnsGetsItsPriority) {
  sim::Simulation sim;
  k8s::ObjectStore<SharePod> store(&sim);
  SchedQueue queue(&store);
  ASSERT_TRUE(store.Create(MakeSharePod("first", 1)).ok());
  queue.Push("first");
  // Pushed while missing (a watch event that trailed its delete), then
  // re-created with no further delete: the pick must still see priority 2.
  queue.Push("ghost");
  ASSERT_TRUE(store.Create(MakeSharePod("ghost", 2)).ok());
  EXPECT_EQ(queue.Pop(), "ghost");
  EXPECT_EQ(queue.Pop(), "first");
}

// --- Cluster level: placements of a seeded priority churn run -------------

/// FNV-1a over every placement KubeShare-Sched wrote, in watch order:
/// (uid, name, GPUID, node, scheduled time).
struct Placements {
  std::uint64_t hash = 1469598103934665603ull;
  int scheduled = 0;

  void Mix(const std::string& s) {
    for (unsigned char c : s) {
      hash ^= c;
      hash *= 1099511628211ull;
    }
    hash ^= 0xff;
    hash *= 1099511628211ull;
  }
};

Placements RunPriorityChurn(std::uint64_t seed) {
  Rng rng(seed);
  k8s::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.gpus_per_node = 2;
  k8s::Cluster cluster(ccfg);
  KubeShare kubeshare(&cluster);
  workload::WorkloadHost host(&cluster);
  EXPECT_TRUE(cluster.Start().ok());
  EXPECT_TRUE(kubeshare.Start().ok());

  Placements out;
  std::set<std::uint64_t> placed;  // uids already recorded
  kubeshare.sharepods().Watch([&](const k8s::WatchEvent<SharePod>& ev) {
    const SharePod& sp = ev.object;
    if (sp.scheduled() && placed.insert(sp.meta.uid).second) {
      ++out.scheduled;
      out.Mix(std::to_string(sp.meta.uid) + " " + sp.meta.name + " " +
              sp.spec.gpu_id.value() + " " + sp.spec.node_name + " " +
              std::to_string(
                  sp.status.scheduled_time.value_or(Time{}).count()));
    }
  });

  std::vector<std::string> live;
  int next_id = 0;
  auto submit = [&](const std::string& name) {
    SharePod sp;
    sp.meta.name = name;
    sp.spec.gpu.gpu_request = rng.Uniform(0.2, 0.7);
    sp.spec.gpu.gpu_limit =
        std::min(1.0, sp.spec.gpu.gpu_request + rng.Uniform(0.0, 0.3));
    sp.spec.gpu.gpu_mem = rng.Uniform(0.1, 0.5);
    sp.spec.priority = static_cast<int>(rng.UniformInt(0, 3));
    if (rng.Chance(0.15)) {
      sp.spec.locality.anti_affinity =
          Label("anti-" + std::to_string(rng.UniformInt(0, 1)));
    }
    workload::InferenceSpec spec = workload::InferenceSpec::ForDemand(
        rng.Uniform(0.1, 0.5), static_cast<int>(rng.UniformInt(20, 200)),
        Millis(20));
    spec.seed = rng.UniformInt(1, 1 << 20);
    host.ExpectJob(name, [spec] {
      return std::make_unique<workload::InferenceJob>(spec);
    });
    EXPECT_TRUE(kubeshare.CreateSharePod(sp).ok());
  };

  for (int round = 0; round < 70; ++round) {
    // Bursts build a queue, so the priority pick has contenders.
    const auto burst = rng.UniformInt(0, 5);
    for (std::int64_t i = 0; i < burst; ++i) {
      const std::string name = "pc-" + std::to_string(next_id++);
      submit(name);
      live.push_back(name);
    }
    if (!live.empty() && rng.Chance(0.35)) {
      // Delete a sharePod that is still waiting, and often re-create it
      // under the same name with a fresh priority.
      const auto idx = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(live.size()) - 1));
      const std::string name = live[idx];
      auto sp = kubeshare.sharepods().Get(name);
      if (sp.ok() && !sp->scheduled() && !sp->terminal()) {
        EXPECT_TRUE(kubeshare.sharepods().Delete(name).ok());
        if (rng.Chance(0.6)) submit(name);
      }
    }
    if (rng.Chance(0.06)) {
      kubeshare.sched().Crash();
      cluster.sim().RunUntil(cluster.sim().Now() +
                             Millis(rng.UniformInt(100, 1500)));
      EXPECT_TRUE(kubeshare.sched().Restart().ok());
    }
    cluster.sim().RunUntil(cluster.sim().Now() +
                           Millis(rng.UniformInt(50, 1200)));
  }
  cluster.sim().RunUntil(cluster.sim().Now() + Minutes(3));
  return out;
}

struct Golden {
  std::uint64_t seed;
  std::uint64_t hash;
  int scheduled;
};

class PriorityChurnPlacements : public ::testing::TestWithParam<Golden> {};

TEST_P(PriorityChurnPlacements, UnchangedFromLinearScan) {
  const Golden& golden = GetParam();
  const Placements got = RunPriorityChurn(golden.seed);
  EXPECT_EQ(got.scheduled, golden.scheduled);
  EXPECT_EQ(got.hash, golden.hash)
      << "seed " << golden.seed << ": 0x" << std::hex << got.hash;
}

// Fingerprints recorded with the linear-scan pick in production.
INSTANTIATE_TEST_SUITE_P(
    Seeds, PriorityChurnPlacements,
    ::testing::Values(Golden{21, 0x879711be97158da4ull, 180},
                      Golden{42, 0x985ea4e6662f76d9ull, 181},
                      Golden{63, 0x64a491c00548b56dull, 155},
                      Golden{84, 0xb89d42b4a0ff76f3ull, 194}),
    [](const auto& info) { return "seed" + std::to_string(info.param.seed); });

}  // namespace
}  // namespace ks::kubeshare
