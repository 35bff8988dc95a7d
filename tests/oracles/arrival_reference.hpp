#pragma once

#include <cstdint>
#include <functional>

#include "common/time.hpp"
#include "serving/arrivals.hpp"
#include "sim/simulation.hpp"

namespace ks::serving {

/// Per-request reference generator: one engine event per arrival, the
/// differential oracle. This is exactly what "plain Poisson clients" cost
/// the engine before batched arrival streams existed — kept, test-only, so
/// the batched path has an executable specification to be measured (and
/// pinned) against. It draws from the same ThinningSequence, so its
/// arrivals equal BatchedArrivalStream's for every window.
class ReferenceArrivalProcess {
 public:
  using ArrivalFn = std::function<void(Time arrival)>;

  ReferenceArrivalProcess(sim::Simulation* sim, RateEnvelope envelope,
                          std::uint64_t seed, Time until, ArrivalFn fn);
  ~ReferenceArrivalProcess() { Stop(); }

  ReferenceArrivalProcess(const ReferenceArrivalProcess&) = delete;
  ReferenceArrivalProcess& operator=(const ReferenceArrivalProcess&) = delete;

  void Start();
  void Stop();

  std::uint64_t arrivals() const { return arrivals_; }
  /// Engine events this generator scheduled (== arrivals, by design).
  std::uint64_t engine_events() const { return engine_events_; }

 private:
  void Arm(Time at);

  sim::Simulation* sim_;
  ThinningSequence seq_;
  Time until_;
  ArrivalFn fn_;
  Time next_{0};
  sim::EventId event_ = sim::kInvalidEvent;
  std::uint64_t arrivals_ = 0;
  std::uint64_t engine_events_ = 0;
  bool started_ = false;
};

}  // namespace ks::serving
