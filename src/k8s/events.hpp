#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace ks::k8s {

/// A cluster event, in the spirit of `kubectl get events`: which component
/// did what to which object, and why.
struct ClusterEvent {
  Time at{0};
  std::string component;  // "kube-scheduler", "kubelet/node-0", ...
  std::string object;     // "pod/train-1", "vgpu/vgpu-3", ...
  std::string reason;     // CamelCase machine-readable reason
  std::string message;    // human-readable detail
};

/// Append-only event sink shared by every control-plane component. Events
/// are the observability surface of the simulation: scheduling decisions,
/// admissions, vGPU lifecycle transitions and failures all land here, and
/// the scenario tool's `report events` prints them.
class EventRecorder {
 public:
  explicit EventRecorder(sim::Simulation* sim) : sim_(sim) {}

  void Record(std::string component, std::string object, std::string reason,
              std::string message = "") {
    events_.push_back({sim_->Now(), std::move(component), std::move(object),
                       std::move(reason), std::move(message)});
  }

  const std::vector<ClusterEvent>& events() const { return events_; }

  /// Events touching one object.
  std::vector<ClusterEvent> For(const std::string& object) const {
    std::vector<ClusterEvent> out;
    for (const ClusterEvent& e : events_) {
      if (e.object == object) out.push_back(e);
    }
    return out;
  }

  /// Count of events with the given reason.
  std::size_t CountReason(const std::string& reason) const {
    std::size_t n = 0;
    for (const ClusterEvent& e : events_) {
      if (e.reason == reason) ++n;
    }
    return n;
  }

  /// Prints the last `tail` events (all of them when tail == 0).
  void Print(std::ostream& os, std::size_t tail = 0) const;

 private:
  sim::Simulation* sim_;
  /// Unbounded: one entry per Record, so it grows with run length. Read by
  /// For/CountReason/Print, the scenario tool's `report events`, tests and
  /// perfbench's event count; a bounded ring buffer is still to come.
  std::vector<ClusterEvent> events_;
};

inline void EventRecorder::Print(std::ostream& os, std::size_t tail) const {
  const std::size_t start =
      (tail == 0 || tail >= events_.size()) ? 0 : events_.size() - tail;
  for (std::size_t i = start; i < events_.size(); ++i) {
    const ClusterEvent& e = events_[i];
    os << FormatTime(e.at) << "  " << e.component << "  " << e.object << "  "
       << e.reason;
    if (!e.message.empty()) os << "  (" << e.message << ")";
    os << "\n";
  }
}

}  // namespace ks::k8s
