// Differential test for the token daemon's SLO admission.
//
// TokenBackend::AdmitRequest decides from two epochs of (samples,
// below-cutoff) counts. The oracle here is the rule it replaced: a
// per-container WindowedLatencyDigest and a full nearest-rank p99 per
// decision, admitted while ToSeconds(p99) < headroom * ToSeconds(slo).
// Seeded scripts drive both in lockstep and must produce the same decision
// sequence and the same shed/queued counters. The scripts aim at the edges
// of the equivalence: latencies on and around the cutoff bucket edge,
// negative latencies, exact epoch boundaries, idle re-anchoring, empty
// windows under min_samples = 0, and limits that land exactly on a bucket
// edge. Run with `ctest -L differential`.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "metrics/latency_digest.hpp"
#include "sim/simulation.hpp"
#include "vgpu/token_backend.hpp"

namespace ks::vgpu {
namespace {

using metrics::LatencyDigest;

/// The pre-counting admission rule, kept as a test-only oracle.
class P99AdmissionOracle {
 public:
  explicit P99AdmissionOracle(AdmissionConfig cfg) : cfg_(cfg) {}

  void SetServiceSlo(const ContainerId& c, Duration slo) {
    auto it = serving_.try_emplace(c, cfg_.window).first;
    it->second.slo = slo;
  }
  void ReportRequestLatency(const ContainerId& c, Time now, Duration d) {
    auto it = serving_.find(c);
    if (it != serving_.end()) it->second.digest.Record(now, d);
  }
  AdmissionDecision AdmitRequest(const ContainerId& c, Time now) {
    auto it = serving_.find(c);
    if (it == serving_.end() || it->second.slo.count() <= 0) {
      return AdmissionDecision::kAdmit;
    }
    State& s = it->second;
    if (s.digest.WindowCount(now) < cfg_.min_samples) {
      return AdmissionDecision::kAdmit;
    }
    const Duration p99 = s.digest.Quantile(now, 0.99);
    if (ToSeconds(p99) < cfg_.headroom * ToSeconds(s.slo)) {
      return AdmissionDecision::kAdmit;
    }
    if (cfg_.policy == AdmissionConfig::Policy::kQueue) {
      ++queued;
      return AdmissionDecision::kQueue;
    }
    ++sheds;
    return AdmissionDecision::kShed;
  }

  std::uint64_t sheds = 0;
  std::uint64_t queued = 0;

 private:
  struct State {
    Duration slo{0};
    metrics::WindowedLatencyDigest digest;
    explicit State(Duration window) : digest(window) {}
  };
  AdmissionConfig cfg_;
  std::map<ContainerId, State> serving_;
};

/// The oracle's boundary, derived independently of the daemon: the lower
/// edge of the first bucket whose edge is not under `limit` seconds.
std::int64_t OracleCutoff(double limit) {
  for (int j = 0; j < LatencyDigest::kBuckets; ++j) {
    const auto edge = static_cast<std::int64_t>(LatencyDigest::LowerEdge(j));
    if (edge < 0) break;  // beyond any int64 microsecond latency
    if (!(ToSeconds(Duration{edge}) < limit)) return edge;
  }
  return -1;  // every reachable bucket passes
}

struct ScriptParam {
  std::uint64_t seed;
  AdmissionConfig::Policy policy;
  std::uint64_t min_samples;
  /// Headroom; negative selects a seeded one that puts the limit on a
  /// bucket edge.
  double headroom;
};

struct ScriptResult {
  std::vector<AdmissionDecision> decisions;
  std::uint64_t sheds = 0;
  std::uint64_t queued = 0;
};

/// One latency drawn around a container's cutoff: on the edge and +-1 us,
/// neighbouring bucket edges, negative spans, zero, and a background of
/// mostly-fast samples whose slow share drifts across 1% so the p99 keeps
/// crossing the limit.
Duration DrawLatency(Rng& rng, std::int64_t cutoff, double slow_share) {
  const std::int64_t base = cutoff > 0 ? cutoff : 1000;
  switch (rng.UniformInt(0, 149)) {
    case 0: return Duration{base + rng.UniformInt(-1, 1)};
    case 1: {
      const int j = LatencyDigest::IndexFor(static_cast<std::uint64_t>(base)) +
                    static_cast<int>(rng.UniformInt(-2, 2));
      return Duration{
          static_cast<std::int64_t>(LatencyDigest::LowerEdge(j < 0 ? 0 : j))};
    }
    case 2: return Duration{-rng.UniformInt(0, 5000)};
    default: break;
  }
  if (rng.Chance(slow_share)) {
    return Duration{base + rng.UniformInt(0, 3 * base)};
  }
  return Duration{rng.UniformInt(0, base - 1 > 0 ? base - 1 : 0)};
}

ScriptResult RunScript(const ScriptParam& p, bool daemon) {
  Rng rng(p.seed);
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.policy = p.policy;
  cfg.min_samples = p.min_samples;
  cfg.window = Seconds(1.0);
  // SLOs of 1 s make the limit headroom * 1.0 exactly, so a headroom equal
  // to ToSeconds(edge) puts the limit on that bucket edge.
  std::vector<std::pair<ContainerId, Duration>> services = {
      {ContainerId("svc-a"), Millis(30)},
      {ContainerId("svc-b"), Seconds(1.0)},
      {ContainerId("svc-c"), Micros(4096)},
  };
  cfg.headroom =
      p.headroom >= 0.0
          ? p.headroom
          : ToSeconds(Duration{static_cast<std::int64_t>(
                LatencyDigest::LowerEdge(static_cast<int>(
                    rng.UniformInt(0, LatencyDigest::kBuckets / 3))))});

  BackendConfig bcfg;
  bcfg.admission = cfg;
  sim::Simulation sim;
  TokenBackend backend(&sim, bcfg);
  P99AdmissionOracle oracle(cfg);

  std::vector<std::int64_t> cutoffs;
  for (const auto& [id, slo] : services) {
    cutoffs.push_back(OracleCutoff(cfg.headroom * ToSeconds(slo)));
    if (daemon) {
      backend.SetServiceSlo(id, slo);
    } else {
      oracle.SetServiceSlo(id, slo);
    }
  }
  // A container that never declared an SLO is always admitted.
  services.emplace_back(ContainerId("no-slo"), Duration{0});
  cutoffs.push_back(1000);

  ScriptResult r;
  Time now{0};
  double slow_share = 0.01;
  const std::int64_t w = cfg.window.count();
  for (int step = 0; step < 8000; ++step) {
    switch (rng.UniformInt(0, 399)) {
      case 0:  // land exactly on the next epoch boundary
        now = Time{(now.count() / w + 1) * w};
        break;
      case 1:  // idle past both epochs: re-anchor
        now += Duration{2 * w + rng.UniformInt(0, 3 * w)};
        break;
      case 2:  // idle exactly two windows
        now = Time{(now.count() / w + 2) * w};
        break;
      case 3:
        now += Duration{rng.UniformInt(w / 2, w)};
        break;
      default:
        now += Duration{rng.UniformInt(0, 2000)};
        break;
    }
    if (step % 250 == 0) slow_share = rng.Uniform(0.0, 0.04);
    const auto k = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(services.size()) - 1));
    const ContainerId& id = services[k].first;
    if (rng.Chance(0.55)) {
      const Duration d = DrawLatency(rng, cutoffs[k], slow_share);
      if (daemon) {
        backend.ReportRequestLatency(id, now, d);
      } else {
        oracle.ReportRequestLatency(id, now, d);
      }
    } else {
      r.decisions.push_back(daemon ? backend.AdmitRequest(id, now)
                                   : oracle.AdmitRequest(id, now));
    }
  }
  r.sheds = daemon ? backend.admission_sheds() : oracle.sheds;
  r.queued = daemon ? backend.admission_queued() : oracle.queued;
  return r;
}

class AdmissionEquivalence : public ::testing::TestWithParam<ScriptParam> {};

TEST_P(AdmissionEquivalence, CountedDecisionsMatchP99Oracle) {
  const ScriptResult daemon = RunScript(GetParam(), true);
  const ScriptResult oracle = RunScript(GetParam(), false);
  ASSERT_EQ(daemon.decisions.size(), oracle.decisions.size());
  for (std::size_t i = 0; i < daemon.decisions.size(); ++i) {
    ASSERT_EQ(daemon.decisions[i], oracle.decisions[i])
        << "decision " << i << ": daemon "
        << AdmissionDecisionName(daemon.decisions[i]) << ", oracle "
        << AdmissionDecisionName(oracle.decisions[i]);
  }
  EXPECT_EQ(daemon.sheds, oracle.sheds);
  EXPECT_EQ(daemon.queued, oracle.queued);
  // Not vacuous: the scripts both admit and turn requests away.
  std::uint64_t admits = 0;
  for (AdmissionDecision d : daemon.decisions) {
    admits += d == AdmissionDecision::kAdmit ? 1 : 0;
  }
  EXPECT_GT(admits, 0u);
  EXPECT_GT(daemon.sheds + daemon.queued, 0u);
}

std::vector<ScriptParam> Scripts() {
  std::vector<ScriptParam> out;
  std::uint64_t seed = 301;
  for (auto policy :
       {AdmissionConfig::Policy::kShed, AdmissionConfig::Policy::kQueue}) {
    for (std::uint64_t min_samples : {0u, 20u}) {
      // 0.9: the production default; 1.0: with the 4096 us SLO the limit
      // is exactly bucket edge 4096; -1: a seeded edge-aligned headroom;
      // 0: the limit is 0, so no bucket edge is under it.
      for (double headroom : {0.9, 1.0, -1.0, 0.0}) {
        out.push_back({seed++, policy, min_samples, headroom});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, AdmissionEquivalence, ::testing::ValuesIn(Scripts()),
    [](const ::testing::TestParamInfo<ScriptParam>& info) {
      const ScriptParam& p = info.param;
      return std::string(p.policy == AdmissionConfig::Policy::kShed
                             ? "Shed"
                             : "Queue") +
             "Min" + std::to_string(p.min_samples) + "Seed" +
             std::to_string(p.seed);
    });

TEST(AdmissionEquivalenceEdges, ZeroLimitNeverAdmitsEvenAnEmptyWindow) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.min_samples = 0;
  cfg.headroom = 0.0;
  BackendConfig bcfg;
  bcfg.admission = cfg;
  sim::Simulation sim;
  TokenBackend backend(&sim, bcfg);
  P99AdmissionOracle oracle(cfg);
  const ContainerId id("svc");
  backend.SetServiceSlo(id, Millis(10));
  oracle.SetServiceSlo(id, Millis(10));
  EXPECT_EQ(oracle.AdmitRequest(id, Time{0}), AdmissionDecision::kShed);
  EXPECT_EQ(backend.AdmitRequest(id, Time{0}), AdmissionDecision::kShed);
  backend.ReportRequestLatency(id, Time{1}, Duration{-7});
  oracle.ReportRequestLatency(id, Time{1}, Duration{-7});
  EXPECT_EQ(oracle.AdmitRequest(id, Time{2}), AdmissionDecision::kShed);
  EXPECT_EQ(backend.AdmitRequest(id, Time{2}), AdmissionDecision::kShed);
}

// --- Serving-state lifetime ---------------------------------------------

struct IdleClient : TokenClient {
  void OnTokenGranted(Time) override {}
  void OnTokenExpired() override {}
};

TEST(AdmissionState, DroppedWithTheContainerKeptAcrossRestart) {
  BackendConfig cfg;
  cfg.admission.enabled = true;
  sim::Simulation sim;
  TokenBackend backend(&sim, cfg);
  const GpuUuid gpu("GPU-0");
  backend.RegisterDevice(gpu);
  IdleClient client;
  const ContainerId a("a"), b("b");
  ASSERT_TRUE(backend.RegisterContainer(a, gpu, {}, &client).ok());
  ASSERT_TRUE(backend.RegisterContainer(b, gpu, {}, &client).ok());
  backend.SetServiceSlo(a, Millis(20));
  backend.SetServiceSlo(b, Millis(20));
  EXPECT_EQ(backend.serving_states(), 2u);

  backend.Restart();  // latency history is rebuilt-state: it survives
  EXPECT_EQ(backend.serving_states(), 2u);
  // Dying during the downtime still drops it.
  ASSERT_TRUE(backend.UnregisterContainer(a).ok());
  EXPECT_EQ(backend.serving_states(), 1u);
  sim.RunUntil(sim.Now() + Seconds(5.0));
  ASSERT_TRUE(backend.UnregisterContainer(b).ok());
  EXPECT_EQ(backend.serving_states(), 0u);
}

TEST(AdmissionState, RedeclaringAnSloThatMovesTheCutoffRestartsTheWindow) {
  BackendConfig cfg;
  cfg.admission.enabled = true;
  cfg.admission.min_samples = 5;
  sim::Simulation sim;
  TokenBackend backend(&sim, cfg);
  const ContainerId id("svc");
  backend.SetServiceSlo(id, Millis(10));
  for (int i = 0; i < 5; ++i) {
    backend.ReportRequestLatency(id, Time{i}, Millis(50));
  }
  EXPECT_EQ(backend.AdmitRequest(id, Time{10}), AdmissionDecision::kShed);
  backend.SetServiceSlo(id, Millis(10));  // same SLO: window kept
  EXPECT_EQ(backend.AdmitRequest(id, Time{11}), AdmissionDecision::kShed);
  backend.SetServiceSlo(id, Millis(100));  // new cutoff: cold start
  EXPECT_EQ(backend.AdmitRequest(id, Time{12}), AdmissionDecision::kAdmit);
}

}  // namespace
}  // namespace ks::vgpu
