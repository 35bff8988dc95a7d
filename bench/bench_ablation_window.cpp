// Ablation (DESIGN.md): the sliding-window length of the usage tracker.
//
// Fig 6 notes that "the GPU usage of a job slightly fluctuates at its
// requested demand" and ties the fluctuation to the time quota; the other
// parameter in that trade is the usage window the backend measures over.
// A short window reacts fast but wobbles (each quota is a big fraction of
// it); a long window is smooth but slow to redistribute capacity when a
// job leaves. Both effects are measured here with the Fig 6 regime
// (A req .3/lim .6 alone, then +B req .4/lim .6).
//
// The second sweep covers the backend's *other* window: the timer wheel's
// coalesce_window, which rounds every token deadline up to the window so
// same-window timers share one engine event. Coarser = fewer events, but
// expiries fire late (up to one window), which shows up as fewer grants
// over a fixed horizon and as measured expiry lag.

#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "cuda/context.hpp"
#include "harness.hpp"
#include "oracles/token_backend_reference.hpp"
#include "vgpu/frontend_hook.hpp"
#include "workload/job.hpp"

namespace {

using namespace ks;

struct WindowResult {
  double yield_s = -1.0;   // time for the incumbent to yield to an arrival
  double settle_s = -1.0;  // time for the survivor to re-absorb a departure
};

WindowResult Run(Duration window) {
  sim::Simulation sim;
  gpu::GpuDevice dev(&sim, GpuUuid("GPU-0"));
  vgpu::BackendConfig cfg;
  cfg.usage_window = window;
  vgpu::TokenBackend backend(&sim, cfg);

  auto make_spec = [](double request, double limit) {
    vgpu::ResourceSpec s;
    s.gpu_request = request;
    s.gpu_limit = limit;
    return s;
  };
  cuda::CudaContext ctx_a(&dev, ContainerId("A"));
  vgpu::FrontendHook hook_a(&ctx_a, &backend, ContainerId("A"), dev.uuid(),
                            make_spec(0.3, 0.6), dev.spec().memory_bytes);
  workload::TrainingSpec train;
  train.steps = 1'000'000;
  train.step_kernel = Millis(10);
  workload::TrainingJob job_a(train);
  job_a.Start(&hook_a, &sim, nullptr);

  // Phase 1: A alone, throttled at its 0.6 limit.
  sim.RunUntil(Seconds(180));

  // Phase 2: B joins. A new arrival's guarantee engages almost instantly
  // (its early-ramp usage counts only its observed lifetime), but the
  // *incumbent* only yields as its window slides: measure the time until
  // A's measured usage drops to 0.52 on its way to the 0.5 split. Then B
  // leaves; measure how fast A re-absorbs (back to 0.575).
  WindowResult out;
  {
    cuda::CudaContext ctx_b(&dev, ContainerId("B"));
    vgpu::FrontendHook hook_b(&ctx_b, &backend, ContainerId("B"), dev.uuid(),
                              make_spec(0.4, 0.6), dev.spec().memory_bytes);
    workload::TrainingJob job_b(train);
    job_b.Start(&hook_b, &sim, nullptr);
    const Time arrival = sim.Now();
    for (int ms = 100; ms <= 120'000; ms += 100) {
      sim.RunUntil(arrival + Millis(ms));
      if (backend.UsageOf(ContainerId("A")) <= 0.52) {
        out.yield_s = ToSeconds(Millis(ms));
        break;
      }
    }
    sim.RunUntil(Seconds(300));  // settle at 0.5/0.5
    job_b.Stop();
  }  // B's hook unregisters here
  const Time departure = sim.Now();
  // A sits at ~0.5 when B leaves; time until it has re-absorbed 3/4 of the
  // freed capacity (usage 0.575 on the way back to its 0.6 limit).
  for (int ms = 100; ms <= 120'000; ms += 100) {
    sim.RunUntil(departure + Millis(ms));
    if (backend.UsageOf(ContainerId("A")) >= 0.575) {
      out.settle_s = ToSeconds(Millis(ms));
      break;
    }
  }
  job_a.Stop();
  return out;
}

// ---------------------------------------------------------------------------
// coalesce_window sweep: grant throughput and expiry precision.

struct GreedyClient : vgpu::TokenClient {
  vgpu::TokenBackendApi* backend = nullptr;
  ContainerId id{""};
  void OnTokenGranted(Time) override {}
  void OnTokenExpired() override {
    (void)backend->ReleaseToken(id);
    (void)backend->RequestToken(id);
  }
};

struct CoalesceResult {
  std::uint64_t total_events = 0;
  std::uint64_t grants = 0;
  double mean_lag_us = 0.0;
  double max_lag_us = 0.0;
};

/// 8 devices x 3 greedy containers exchanging 100 ms tokens for 30 s.
/// Expiry lag = actual "expire" transition minus the expiry promised at
/// grant time. The wheel rounds the deadline up to the window *before*
/// promising it, so lag stays zero at every window; the rounding instead
/// stretches each grant's effective quota, visible as fewer grants over
/// the fixed horizon.
CoalesceResult RunCoalesce(bool reference, Duration window) {
  sim::Simulation sim;
  vgpu::BackendConfig cfg;
  cfg.coalesce_window = window;
  std::unique_ptr<vgpu::TokenBackendApi> backend;
  if (reference) {
    backend = std::make_unique<vgpu::TokenBackendReference>(&sim, cfg);
  } else {
    backend = std::make_unique<vgpu::TokenBackend>(&sim, cfg);
  }

  std::map<std::string, Time> promised;
  RunningStats lag_us;
  double max_lag = 0.0;
  backend->SetGrantTraceFn([&](const char* what, const ContainerId& container,
                               Time when) {
    if (std::string_view(what) == "grant") {
      promised[container.value()] = when;
    } else if (std::string_view(what) == "expire") {
      const auto it = promised.find(container.value());
      if (it == promised.end()) return;
      const double lag = static_cast<double>((when - it->second).count());
      lag_us.Add(lag);
      max_lag = std::max(max_lag, lag);
    }
  });

  const int kDevices = 8;
  const int kContainersPerDevice = 3;
  std::vector<GpuUuid> gpus;
  for (int d = 0; d < kDevices; ++d) {
    gpus.emplace_back("GPU-CW-" + std::to_string(d));
    backend->RegisterDevice(gpus.back());
  }
  std::vector<std::unique_ptr<GreedyClient>> clients;
  for (int c = 0; c < kDevices * kContainersPerDevice; ++c) {
    auto client = std::make_unique<GreedyClient>();
    client->backend = backend.get();
    client->id = ContainerId("cw" + std::to_string(c));
    vgpu::ResourceSpec spec;
    spec.gpu_request = 0.3;
    spec.gpu_limit = 1.0;
    if (!backend
             ->RegisterContainer(client->id,
                                 gpus[static_cast<std::size_t>(c % kDevices)],
                                 spec, client.get())
             .ok()) {
      continue;
    }
    // Staggered arrivals so deadlines are not aligned by construction.
    sim.ScheduleAt(Millis(c), [&backend, id = client->id] {
      (void)backend->RequestToken(id);
    });
    clients.push_back(std::move(client));
  }
  sim.RunUntil(Seconds(30));

  CoalesceResult out;
  out.total_events = sim.lifetime_events();
  out.grants = backend->grants();
  out.mean_lag_us = lag_us.count() > 0 ? lag_us.mean() : 0.0;
  out.max_lag_us = max_lag;
  return out;
}

}  // namespace

int main() {
  bench::Banner(
      "bench_ablation_window: usage sliding-window length",
      "DESIGN.md ablation (Fig 6 fluctuation / responsiveness trade)");

  Table table({"window (s)", "incumbent yield time (s)",
               "re-absorb after departure (s)"});
  for (const double window_s : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    const WindowResult r = Run(Seconds(window_s));
    table.AddRow({Cell(window_s, 0),
                  r.yield_s < 0 ? "n/a" : Cell(r.yield_s, 1),
                  r.settle_s < 0 ? "n/a" : Cell(r.settle_s, 1)});
  }
  table.Print(std::cout);
  std::cout << "\nExpected: both transients scale with the window — the "
               "backend compares\nusage measured over the trailing window "
               "against request/limit, so a job's\nmeasured share only "
               "moves as fast as the window slides. Short windows\nreact "
               "in fractions of a second; a 40 s window takes many seconds "
               "to\nrebalance. The Fig 6 regimes assume a window well "
               "below the 200 s phase\nlength; ~10 s satisfies that with "
               "smooth-enough accounting.\n";

  std::cout << "\ncoalesce_window sweep: 8 devices x 3 greedy containers, "
               "100 ms tokens,\n30 s horizon. Events = everything the "
               "engine scheduled; lag = actual\nexpiry minus the expiry "
               "promised at grant time.\n\n";
  Table cw({"coalesce window", "total events", "grants", "mean lag (us)",
            "max lag (us)"});
  const CoalesceResult ref = RunCoalesce(true, Micros(500));
  cw.AddRow({std::string("reference"),
             Cell(static_cast<std::int64_t>(ref.total_events)),
             Cell(static_cast<std::int64_t>(ref.grants)),
             Cell(ref.mean_lag_us, 1), Cell(ref.max_lag_us, 1)});
  struct WindowPoint {
    const char* label;
    Duration window;
  };
  const WindowPoint points[] = {
      {"100 us", Micros(100)}, {"500 us (default)", Micros(500)},
      {"1 ms", Millis(1)},     {"5 ms", Millis(5)},
      {"20 ms", Millis(20)},
  };
  for (const WindowPoint& p : points) {
    const CoalesceResult r = RunCoalesce(false, p.window);
    cw.AddRow({std::string(p.label),
               Cell(static_cast<std::int64_t>(r.total_events)),
               Cell(static_cast<std::int64_t>(r.grants)),
               Cell(r.mean_lag_us, 1), Cell(r.max_lag_us, 1)});
  }
  cw.Print(std::cout);
  std::cout << "\nThe trade (recorded in docs/performance.md): windows that "
               "divide every\ndaemon duration (<= 500 us) match the "
               "reference grant count exactly;\ncoarser windows shed engine "
               "events roughly linearly but round each\ndeadline up, "
               "stretching every grant's effective quota by up to one\n"
               "window — fewer grants over a fixed horizon and longer waits "
               "for the\nnext holder (the quota side of bench_study_latency)."
               " Promises are\nalways kept (lag 0: the rounded deadline is "
               "what gets promised).\n500 us stays the default: it is exact, "
               "and since the fused device\nengine removed the kernel-event "
               "bulk, token events no longer dominate\nfull runs — "
               "precision is worth more than the residual saving. 5 ms "
               "is\nthe documented knob for token-dense deployments.\n";
  return 0;
}
