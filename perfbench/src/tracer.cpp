#include "tracer.hpp"

#include <fstream>

namespace perfbench {

std::int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(std::string name, std::string id) {
  Span s;
  s.name = std::move(name);
  s.id = std::move(id);
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index, std::uint64_t count) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = NowNs();
  s.count = count;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::AddSimulated(std::string name, std::string id,
                          std::int64_t start_us, std::int64_t end_us) {
  Span s;
  s.name = std::move(name);
  s.id = std::move(id);
  s.start_ns = start_us;
  s.end_ns = end_us;
  s.simulated = true;
  spans_.push_back(std::move(s));
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Names and ids are benchmark-chosen identifiers (no quotes or
    // backslashes), so they are written without escaping.
    out << "{\"i\":" << i << ",\"name\":\"" << s.name << "\",\"id\":\""
        << s.id << "\",\"clock\":\"" << (s.simulated ? "sim_us" : "host_ns")
        << "\",\"start\":" << s.start_ns << ",\"end\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"count\":" << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
