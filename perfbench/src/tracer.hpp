#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Host spans are timed with
/// steady_clock around the benchmark's calls into each layer; simulated
/// spans carry simulated-time bounds (sharePod lifecycle phases). Spans of
/// one sharePod or service share `id`. Nothing is written until the run
/// ends (WriteJson).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string id;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    bool simulated = false;  // start/end are simulated microseconds
    std::uint64_t count = 0;  // optional payload (e.g. engine events)
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a host span under the innermost open span; returns its index.
  int Begin(std::string name, std::string id = {});
  void End(int index, std::uint64_t count = 0);
  void AddSimulated(std::string name, std::string id, std::int64_t start_us,
                    std::int64_t end_us);

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t NowNs() const;
  /// Writes every span as one JSON object per line. Returns false when
  /// the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII host span; a null tracer makes it a no-op, so untraced runs pay
/// one branch per call site.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string id = {})
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(std::move(name), std::move(id)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_count(std::uint64_t count) { count_ = count; }

 private:
  Tracer* tracer_;
  int index_;
  std::uint64_t count_ = 0;
};

}  // namespace perfbench
