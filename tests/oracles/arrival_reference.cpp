#include "oracles/arrival_reference.hpp"

#include <cassert>
#include <utility>

namespace ks::serving {

ReferenceArrivalProcess::ReferenceArrivalProcess(sim::Simulation* sim,
                                                RateEnvelope envelope,
                                                std::uint64_t seed, Time until,
                                                ArrivalFn fn)
    : sim_(sim),
      seq_(std::move(envelope), seed),
      until_(until),
      fn_(std::move(fn)) {
  assert(sim_ != nullptr);
}

void ReferenceArrivalProcess::Start() {
  if (started_) return;
  started_ = true;
  next_ = seq_.Next();
  if (next_ < until_) Arm(next_);
}

void ReferenceArrivalProcess::Stop() {
  if (event_ != sim::kInvalidEvent) {
    sim_->Cancel(event_);
    event_ = sim::kInvalidEvent;
  }
  started_ = false;
}

void ReferenceArrivalProcess::Arm(Time at) {
  ++engine_events_;
  event_ = sim_->ScheduleAt(at, [this] {
    event_ = sim::kInvalidEvent;
    const Time arrival = next_;
    ++arrivals_;
    next_ = seq_.Next();
    if (next_ < until_) Arm(next_);
    if (fn_) fn_(arrival);
  });
}

}  // namespace ks::serving
