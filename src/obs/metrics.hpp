// Metric primitives and the process-wide registry (cgc::obs).
//
// Three metric kinds, all safe for concurrent update:
//
//   * Counter — monotonically increasing u64. Counters of logical work
//     items are deterministic across CGC_THREADS when the work split
//     is (cgc::exec chunk plans are); counters of elapsed time are not
//     and are documented as such at the site.
//   * Gauge — instantaneous i64 level with a high-water mark (queue
//     depths, in-flight helpers).
//   * Histogram — log2-bucketed u64 distribution (bucket b holds
//     values with bit_width(v) == b, i.e. [2^(b-1), 2^b)) with exact
//     count/sum/min/max. Durations are recorded in nanoseconds.
//
// Sites follow the idiom
//
//   if (obs::metrics_enabled()) {
//     static obs::Counter& c = obs::counter("store.chunks_decoded");
//     c.add(1);
//   }
//
// so a disarmed run never touches the registry (the site-count smoke
// test in obs_test.cpp relies on this), and an armed run pays the
// name lookup once per site. Registered metrics live for the process
// lifetime — references never dangle; reset_metrics() zeroes values
// without invalidating identities.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "obs/obs.hpp"
#include "stats/bucketing.hpp"

namespace cgc::obs {

class Counter {
 public:
  /// Adds `n` to the count (lock-free, relaxed order).
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Current count.
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// Zeroes the count (the registry identity is untouched).
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  /// Adjusts the level; the high-water mark tracks every intermediate
  /// value set through this interface.
  void add(std::int64_t delta);
  /// Sets the level directly (also feeds the high-water mark).
  void set(std::int64_t value);
  /// Current level.
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// High-water mark since construction or the last reset().
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// Zeroes level and high-water mark.
  void reset();

 private:
  void raise_max(std::int64_t candidate);

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

class Histogram {
 public:
  /// One bucket per possible bit_width of a u64 (0..64); the bucket
  /// geometry is the shared log2 scheme in stats/bucketing.hpp.
  static constexpr std::size_t kNumBuckets =
      stats::bucketing::kNumLog2Buckets;

  /// Records one observation into its log2 bucket.
  void observe(std::uint64_t value);

  /// Observations recorded so far.
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Sum of every observed value.
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  std::uint64_t min() const;
  /// Largest observed value (0 when empty).
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// sum()/count(), 0.0 when empty.
  double mean() const;
  /// Upper bound of the bucket containing the p-quantile (p in [0,1]);
  /// a factor-of-two estimate, which is what a log2 histogram can give.
  std::uint64_t approx_percentile(double p) const;
  /// Zeroes all buckets and extrema.
  void reset();

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
};

/// Registry lookups: find-or-create by name. The returned reference is
/// valid for the process lifetime. Looking a name up as one kind and
/// then another throws cgc::util::Error.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Zeroes every registered metric's values; identities survive.
void reset_metrics();

/// Writes the whole registry as JSON, keys sorted by name:
/// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
void write_metrics_json(std::ostream& out);

}  // namespace cgc::obs
