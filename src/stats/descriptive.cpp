#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace cgc::stats {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return count_ == 0 ? 0.0 : min_; }

double RunningStats::max() const { return count_ == 0 ? 0.0 : max_; }

RunningStats summarize(std::span<const double> values) {
  RunningStats stats;
  for (const double v : values) {
    stats.add(v);
  }
  return stats;
}

double quantile_sorted(std::span<const double> sorted, double q) {
  CGC_CHECK_MSG(!sorted.empty(), "quantile of empty span");
  CGC_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
  if (sorted.size() == 1) {
    return sorted[0];
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double quantile(std::span<const double> values, double q) {
  std::vector<double> copy(values.begin(), values.end());
  std::sort(copy.begin(), copy.end());
  return quantile_sorted(copy, q);
}

double median(std::span<const double> values) {
  return quantile(values, 0.5);
}

double fraction_below(std::span<const double> values, double threshold) {
  if (values.empty()) {
    return 0.0;
  }
  std::size_t below = 0;
  for (const double v : values) {
    if (v < threshold) {
      ++below;
    }
  }
  return static_cast<double>(below) / static_cast<double>(values.size());
}

}  // namespace cgc::stats
