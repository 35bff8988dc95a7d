#pragma once

#include <array>
#include <cstdint>

#include "common/time.hpp"

namespace ks::metrics {

/// Fixed-size streaming latency estimator (HDR-histogram-style log-bucket
/// layout): p50/p99/p99.9 over microsecond-resolution samples with bounded
/// relative error, O(1) allocation-free updates, and exact merges.
///
/// Why not a sorted vector: the serving layer records one latency per
/// request, and the north star is millions of clients — per-request storage
/// must be O(1), not O(requests). Why not a t-digest: merges of t-digests
/// are approximate and order-dependent, which would make cross-node SLO
/// aggregation depend on merge order; log-bucket histograms merge by
/// element-wise addition, which is exact, associative and commutative (the
/// property test pins this).
///
/// Layout: values are bucketed by their binary magnitude with kSubBuckets
/// linear sub-buckets per power of two, so the relative width of any bucket
/// is at most 1/kSubBuckets (~3.1%). Quantiles answer with the bucket's
/// lower edge, hence for the rank-selected sample x:
///     Quantile(q) <= x <= Quantile(q) * (1 + 1/kSubBuckets) + 1us
/// The full index range covers every representable std::uint64_t count of
/// microseconds in kBuckets = 1920 fixed slots (~15 KiB) — no resizing,
/// ever, which is what "zero allocation on the update path" means.
class LatencyDigest {
 public:
  static constexpr int kSubBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 32
  static constexpr int kBuckets = (64 - kSubBits + 1) * kSubBuckets;  // 1920

  /// Records one latency sample. Negative durations clamp to zero (they
  /// cannot occur for arrival->finish spans, but the digest must never
  /// index out of range). Allocation-free and noexcept by construction.
  void Record(Duration d) noexcept {
    const std::int64_t raw = d.count();
    const std::uint64_t v = raw < 0 ? 0u : static_cast<std::uint64_t>(raw);
    ++counts_[IndexFor(v)];
    ++count_;
    sum_us_ += v;
    if (v < min_us_) min_us_ = v;
    if (v > max_us_) max_us_ = v;
  }

  /// Element-wise addition — the exact merge that makes per-node digests
  /// aggregate into a cluster digest with no precision loss.
  void Merge(const LatencyDigest& other) noexcept {
    for (int i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_us_ += other.sum_us_;
    if (other.min_us_ < min_us_) min_us_ = other.min_us_;
    if (other.max_us_ > max_us_) max_us_ = other.max_us_;
  }

  void Clear() noexcept {
    counts_.fill(0);
    count_ = 0;
    sum_us_ = 0;
    min_us_ = ~0ull;
    max_us_ = 0;
  }

  /// Nearest-rank quantile, q in [0, 1]: the lower edge of the bucket
  /// holding the ceil(q * count)-th smallest sample. Zero when empty.
  Duration Quantile(double q) const {
    return QuantileOver(*this, nullptr, q);
  }
  double QuantileSeconds(double q) const { return ToSeconds(Quantile(q)); }

  /// Quantile over the union of two digests without materializing the
  /// merge — the windowed estimator queries (current + previous epoch)
  /// on every probe, and a 15 KiB copy per query would dwarf the update
  /// cost this class exists to avoid.
  static Duration QuantileUnion(const LatencyDigest& a, const LatencyDigest& b,
                                double q) {
    return QuantileOver(a, &b, q);
  }

  std::uint64_t count() const { return count_; }
  Duration SumLatency() const {
    return Duration{static_cast<std::int64_t>(sum_us_)};
  }
  double MeanSeconds() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_us_) / 1e6 /
                             static_cast<double>(count_);
  }
  Duration Min() const {
    return count_ == 0 ? Duration{0}
                       : Duration{static_cast<std::int64_t>(min_us_)};
  }
  Duration Max() const {
    return Duration{static_cast<std::int64_t>(max_us_)};
  }

  /// Bucket index of a microsecond value. Exposed for the property tests.
  static int IndexFor(std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<int>(v);
    int msb = 63;
    while ((v & (1ull << msb)) == 0) --msb;  // v >= 32, so msb >= kSubBits
    const int shift = msb - kSubBits;
    return (shift + 1) * kSubBuckets +
           static_cast<int>((v >> shift) & (kSubBuckets - 1));
  }

  /// 1-based rank of the nearest-rank q-quantile among `total` samples:
  /// ceil(q * total), q clamped to [0, 1], the result to [1, total]; 0 when
  /// there are no samples. The one rank rule of the repo — Quantile and the
  /// token daemon's counted SLO admission both select with it.
  static std::uint64_t NearestRank(double q, std::uint64_t total) noexcept {
    if (total == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(total));
    if (static_cast<double>(rank) < q * static_cast<double>(total)) ++rank;
    if (rank == 0) rank = 1;
    if (rank > total) rank = total;
    return rank;
  }

  /// Smallest microsecond value mapping to bucket `idx` — the quantile
  /// representative.
  static std::uint64_t LowerEdge(int idx) noexcept {
    if (idx < 2 * kSubBuckets) return static_cast<std::uint64_t>(idx);
    const int shift = idx / kSubBuckets - 1;
    const std::uint64_t sub = static_cast<std::uint64_t>(idx % kSubBuckets);
    return (kSubBuckets + sub) << shift;
  }

 private:
  static Duration QuantileOver(const LatencyDigest& a, const LatencyDigest* b,
                               double q) {
    const std::uint64_t total = a.count_ + (b != nullptr ? b->count_ : 0);
    if (total == 0) return Duration{0};
    const std::uint64_t rank = NearestRank(q, total);
    std::uint64_t cum = 0;
    for (int i = 0; i < kBuckets; ++i) {
      cum += a.counts_[i] + (b != nullptr ? b->counts_[i] : 0);
      if (cum >= rank) {
        return Duration{static_cast<std::int64_t>(LowerEdge(i))};
      }
    }
    return Duration{static_cast<std::int64_t>(LowerEdge(kBuckets - 1))};
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_us_ = 0;
  std::uint64_t min_us_ = ~0ull;
  std::uint64_t max_us_ = 0;
};

/// The two-epoch sliding-window rule every windowed estimator shares:
/// samples land in the current epoch and queries read current + previous,
/// so a window-W view always covers between one and two windows of
/// history. Rotation happens lazily on access — the estimator owes the
/// simulation engine no events, matching the TickHub discipline that
/// periodic instruments must not keep private timers. `Epoch` is any
/// copyable per-epoch summary with a Clear().
template <typename Epoch>
class TwoEpochWindow {
 public:
  explicit TwoEpochWindow(Duration window) : window_(window) {}

  /// Rotates the epochs up to `now`. Idempotent for a fixed `now`; a
  /// non-positive window never rotates.
  void Advance(Time now) noexcept {
    if (window_.count() <= 0) return;
    if (now < epoch_ + window_) return;
    if (now >= epoch_ + window_ + window_) {
      // Idle long enough that both epochs are stale: drop everything and
      // re-anchor the epoch grid at the current window boundary.
      current_.Clear();
      previous_.Clear();
      epoch_ = Time{(now.count() / window_.count()) * window_.count()};
      return;
    }
    previous_ = current_;
    current_.Clear();
    epoch_ += window_;
  }

  Epoch& current() noexcept { return current_; }
  const Epoch& current() const noexcept { return current_; }
  const Epoch& previous() const noexcept { return previous_; }
  Duration window() const { return window_; }

 private:
  Duration window_;
  Time epoch_{0};
  Epoch current_{};
  Epoch previous_{};
};

/// Sliding-window view over a LatencyDigest: two rotating epochs
/// (TwoEpochWindow), queried as their union, so "observed p99" always
/// covers between one and two windows of history.
class WindowedLatencyDigest {
 public:
  explicit WindowedLatencyDigest(Duration window) : epochs_(window) {}

  void Record(Time now, Duration d) noexcept {
    epochs_.Advance(now);
    epochs_.current().Record(d);
  }

  Duration Quantile(Time now, double q) {
    epochs_.Advance(now);
    return LatencyDigest::QuantileUnion(epochs_.current(), epochs_.previous(),
                                        q);
  }
  double QuantileSeconds(Time now, double q) {
    return ToSeconds(Quantile(now, q));
  }

  /// Samples inside the current + previous epoch.
  std::uint64_t WindowCount(Time now) {
    epochs_.Advance(now);
    return epochs_.current().count() + epochs_.previous().count();
  }

  Duration window() const { return epochs_.window(); }

 private:
  TwoEpochWindow<LatencyDigest> epochs_;
};

}  // namespace ks::metrics
