// Descriptive statistics: streaming moments (Welford's algorithm) and
// batch quantile helpers.
//
// RunningStats is the workhorse accumulator used throughout the analysis
// pipelines; it is mergeable (parallel reduction friendly) and numerically
// stable for the month-long, million-sample series the paper processes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cgc::stats {

/// Streaming mean/variance/min/max accumulator (Welford). Mergeable via
/// merge() for parallel shard reduction.
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x);

  /// Merges another accumulator (Chan et al. parallel variance update).
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const;
  /// Population variance (divides by n). Returns 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Sum of squared deviations from the mean (Welford's M2 state).
  double m2() const { return m2_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Computes RunningStats over a span in one pass.
RunningStats summarize(std::span<const double> values);

/// Quantile of `values` via linear interpolation between order statistics
/// (type-7, the numpy/R default). `q` in [0, 1]. Sorts a copy.
double quantile(std::span<const double> values, double q);

/// Quantile over values the caller guarantees are already sorted.
double quantile_sorted(std::span<const double> sorted, double q);

/// Median shorthand.
double median(std::span<const double> values);

/// Fraction of values strictly below `threshold`.
double fraction_below(std::span<const double> values, double threshold);

}  // namespace cgc::stats
