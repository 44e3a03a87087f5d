// Host-load periodicity analysis (extension).
//
// The paper's related-work discussion (H. Li) notes that Grid host load
// exhibits clear periodic/diurnal patterns usable for prediction, while
// the paper's own findings imply Cloud load does not. This analyzer
// makes that comparison concrete: per host, downsample the relative
// usage to hourly resolution and search the autocorrelation function for
// a significant dominant period.
#pragma once

#include <string>

#include "analysis/hostload_analyzers.hpp"
#include "analysis/report.hpp"
#include "trace/trace_set.hpp"

namespace cgc::analysis {

struct PeriodicityReport {
  std::string system;
  Metric metric = Metric::kCpu;
  std::size_t num_hosts = 0;
  /// Fraction of hosts with a statistically significant dominant period.
  double fraction_periodic = 0.0;
  /// Median dominant period (hours) among the periodic hosts; 0 if none.
  double median_period_hours = 0.0;
  /// Mean ACF peak strength among periodic hosts.
  double mean_strength = 0.0;
  /// Mean hourly ACF across all hosts: rows of (lag_hours, acf).
  Figure acf_figure;
};

/// Analyzes periodicity of per-host relative usage. Lags are searched in
/// [min_lag_hours, max_lag_hours] on hourly-downsampled series.
PeriodicityReport analyze_periodicity(const trace::TraceSet& trace,
                                      Metric metric,
                                      std::size_t min_lag_hours = 6,
                                      std::size_t max_lag_hours = 48);

}  // namespace cgc::analysis
