// Periodicity detection via the autocorrelation function.
//
// The paper (and H. Li's related work it cites) observes that Grid load
// exhibits clear diurnal/periodic patterns while Cloud load does not —
// a property load predictors can exploit. This module computes the
// autocorrelation function over a lag range and extracts the dominant
// period as the highest significant ACF peak.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cgc::stats {

/// Autocorrelation function: rho(lag) for lag in [1, max_lag].
std::vector<double> autocorrelation_function(std::span<const double> series,
                                             std::size_t max_lag);

struct PeriodicityResult {
  /// Lag (in samples) of the strongest ACF local maximum; 0 if none.
  std::size_t dominant_period = 0;
  /// ACF value at that lag.
  double strength = 0.0;
  /// Peak height above the deepest ACF trough before it — separates true
  /// oscillation from the slow monotone decay of a persistent series.
  double prominence = 0.0;
  /// True when the peak clears the white-noise significance band
  /// (|rho| > 2/sqrt(n)) by the caller's margin factor AND has at least
  /// `min_prominence` of rise over the preceding trough.
  bool significant = false;
};

/// Finds the dominant period of a series by scanning the ACF for local
/// maxima in [min_lag, max_lag]. A peak must exceed `margin * 2/sqrt(n)`
/// and rise at least `min_prominence` above the lowest ACF value at any
/// earlier lag to count as significant (a monotonically decaying ACF —
/// persistence, not periodicity — has near-zero prominence).
PeriodicityResult detect_periodicity(std::span<const double> series,
                                     std::size_t min_lag,
                                     std::size_t max_lag,
                                     double margin = 3.0,
                                     double min_prominence = 0.15);

}  // namespace cgc::stats
