#include "stats/timeseries.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hpp"
#include "util/check.hpp"

namespace cgc::stats {

std::vector<double> mean_filter(std::span<const double> series,
                                std::size_t window) {
  CGC_CHECK_MSG(window % 2 == 1, "mean filter window must be odd");
  std::vector<double> out(series.size());
  if (series.empty()) {
    return out;
  }
  if (window == 1) {
    out.assign(series.begin(), series.end());
    return out;
  }
  const std::size_t half = window / 2;
  const std::size_t n = series.size();
  // Sliding-window prefix sums: O(n) regardless of window size.
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + series[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    out[i] = (prefix[hi + 1] - prefix[lo]) / static_cast<double>(hi - lo + 1);
  }
  return out;
}

NoiseResult noise_after_mean_filter(std::span<const double> series,
                                    std::size_t window) {
  NoiseResult result;
  if (series.size() < 2) {
    return result;
  }
  const std::vector<double> smooth = mean_filter(series, window);
  double sum_abs = 0.0;
  double sum_sq = 0.0;
  double min_abs = std::numeric_limits<double>::infinity();
  double max_abs = 0.0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double r = std::abs(series[i] - smooth[i]);
    sum_abs += r;
    sum_sq += r * r;
    min_abs = std::min(min_abs, r);
    max_abs = std::max(max_abs, r);
  }
  const double n = static_cast<double>(series.size());
  result.min_abs = min_abs;
  result.mean_abs = sum_abs / n;
  result.max_abs = max_abs;
  result.rms = std::sqrt(sum_sq / n);
  return result;
}

double autocorrelation(std::span<const double> series, std::size_t lag) {
  if (series.size() <= lag + 1) {
    return 0.0;
  }
  const std::size_t n = series.size();
  // Each pass is a deterministic chunked reduce (fixed chunk plan,
  // partials combined in index order), so the result is bit-identical
  // at any thread count.
  const auto chunked_sum = [&](auto&& term) {
    return exec::parallel_reduce(
        0, n, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            s += term(i);
          }
          return s;
        },
        [](double& acc, double part) { acc += part; });
  };
  const double mean =
      chunked_sum([&](std::size_t i) { return series[i]; }) /
      static_cast<double>(n);
  const double var = chunked_sum([&](std::size_t i) {
    return (series[i] - mean) * (series[i] - mean);
  });
  if (var == 0.0) {
    return 0.0;
  }
  const double cov = chunked_sum([&](std::size_t i) {
    return i + lag < n ? (series[i] - mean) * (series[i + lag] - mean) : 0.0;
  });
  return cov / var;
}

std::size_t usage_level(double value, std::size_t num_levels) {
  CGC_CHECK(num_levels > 0);
  if (value <= 0.0) {
    return 0;
  }
  if (value >= 1.0) {
    return num_levels - 1;
  }
  return std::min(static_cast<std::size_t>(value * num_levels),
                  num_levels - 1);
}

std::vector<LevelRun> level_runs(std::span<const double> series,
                                 std::size_t num_levels,
                                 std::int64_t sample_period) {
  std::vector<LevelRun> runs;
  if (series.empty()) {
    return runs;
  }
  std::size_t current = usage_level(series[0], num_levels);
  std::int64_t length = 1;
  for (std::size_t i = 1; i < series.size(); ++i) {
    const std::size_t level = usage_level(series[i], num_levels);
    if (level == current) {
      ++length;
    } else {
      runs.push_back({current, length * sample_period});
      current = level;
      length = 1;
    }
  }
  runs.push_back({current, length * sample_period});
  return runs;
}

std::vector<LevelRun> state_runs(std::span<const std::int64_t> states,
                                 std::int64_t sample_period) {
  std::vector<LevelRun> runs;
  if (states.empty()) {
    return runs;
  }
  std::int64_t current = states[0];
  std::int64_t length = 1;
  for (std::size_t i = 1; i < states.size(); ++i) {
    if (states[i] == current) {
      ++length;
    } else {
      CGC_CHECK_MSG(current >= 0, "state values must be non-negative");
      runs.push_back({static_cast<std::size_t>(current),
                      length * sample_period});
      current = states[i];
      length = 1;
    }
  }
  CGC_CHECK_MSG(current >= 0, "state values must be non-negative");
  runs.push_back({static_cast<std::size_t>(current), length * sample_period});
  return runs;
}

}  // namespace cgc::stats
