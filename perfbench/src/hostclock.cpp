#include "hostclock.hpp"

#include <time.h>

namespace perfbench {

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

RefKernel::RefKernel() : table_(kTableWords) {
  for (std::uint32_t i = 0; i < kEvents; ++i) heap_.emplace(i, i);
  for (std::uint32_t k = 0; k < kKeys; ++k) map_[k] = k;
}

double RefKernel::Run() {
  const double start = ThreadCpuSeconds();
  for (int i = 0; i < kSteps; ++i) {
    const Event e = heap_.top();
    heap_.pop();
    rng_ ^= rng_ << 13;  // xorshift64
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    table_[rng_ & (kTableWords - 1)] += e.second;
    map_[static_cast<std::uint32_t>(rng_ >> 32) & (kKeys - 1)] += e.first;
    heap_.emplace(e.first + (rng_ >> 54) + 1, e.second);
  }
  return ThreadCpuSeconds() - start;
}

}  // namespace perfbench
