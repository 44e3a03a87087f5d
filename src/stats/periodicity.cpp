#include "stats/periodicity.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hpp"
#include "stats/timeseries.hpp"
#include "util/check.hpp"

namespace cgc::stats {

std::vector<double> autocorrelation_function(std::span<const double> series,
                                             std::size_t max_lag) {
  CGC_CHECK_MSG(max_lag >= 1, "max_lag must be >= 1");
  std::vector<double> acf(max_lag);
  if (series.size() < 3) {
    return acf;
  }
  const std::size_t n = series.size();
  double mean = 0.0;
  for (const double v : series) {
    mean += v;
  }
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const double v : series) {
    var += (v - mean) * (v - mean);
  }
  if (var == 0.0) {
    return acf;
  }
  // Lags are independent O(n) covariance sums writing disjoint slots,
  // so fan them out one lag per chunk; the per-lag accumulation stays a
  // single serial loop, keeping every acf[k] thread-count independent.
  exec::parallel_for(
      1, max_lag + 1,
      [&](std::size_t lag) {
        if (lag + 1 >= n) {
          return;
        }
        double cov = 0.0;
        for (std::size_t i = 0; i + lag < n; ++i) {
          cov += (series[i] - mean) * (series[i + lag] - mean);
        }
        acf[lag - 1] = cov / var;
      },
      /*grain=*/1);
  return acf;
}

PeriodicityResult detect_periodicity(std::span<const double> series,
                                     std::size_t min_lag,
                                     std::size_t max_lag, double margin,
                                     double min_prominence) {
  CGC_CHECK_MSG(min_lag >= 2, "min_lag must be >= 2");
  CGC_CHECK_MSG(max_lag > min_lag, "max_lag must exceed min_lag");
  PeriodicityResult result;
  if (series.size() < min_lag * 3) {
    return result;
  }
  const std::vector<double> acf =
      autocorrelation_function(series, max_lag + 1);
  const double threshold =
      margin * 2.0 / std::sqrt(static_cast<double>(series.size()));
  // Local maxima of the ACF within [min_lag, max_lag], scored by
  // prominence over the deepest preceding trough.
  double trough = acf[0];
  double best_score = 0.0;
  for (std::size_t lag = min_lag; lag <= max_lag; ++lag) {
    const double here = acf[lag - 1];
    trough = std::min(trough, acf[lag - 2]);
    const double prev = acf[lag - 2];
    const double next = lag < max_lag ? acf[lag] : -1.0;
    const double prominence = here - trough;
    if (here >= prev && here > next && here * prominence > best_score) {
      best_score = here * prominence;
      result.dominant_period = lag;
      result.strength = here;
      result.prominence = prominence;
    }
  }
  result.significant = result.dominant_period != 0 &&
                       result.strength > threshold &&
                       result.prominence >= min_prominence;
  return result;
}

}  // namespace cgc::stats
