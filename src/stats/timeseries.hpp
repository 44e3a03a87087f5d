// Time-series analysis for host-load signals.
//
// Covers the paper's Section IV machinery: mean-filter smoothing and
// noise extraction (Fig 13's "noise of Google load is 20x Grid's"),
// autocorrelation, and usage-level quantization with run-length analysis
// (Tables II/III, Fig 9: durations of unchanged load level / queue state).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace cgc::stats {

/// Centered moving-average (mean) filter with the given odd window.
/// Edges use the available partial window. window=1 returns the input.
std::vector<double> mean_filter(std::span<const double> series,
                                std::size_t window);

/// Noise summary of a series: residual statistics after mean-filtering,
/// matching the paper's methodology ("processing the trace with a mean
/// filter, then computing statistics on the transformed trace").
struct NoiseResult {
  double min_abs = 0.0;   ///< min |residual|
  double mean_abs = 0.0;  ///< mean |residual| — the headline noise number
  double max_abs = 0.0;   ///< max |residual|
  double rms = 0.0;       ///< root-mean-square residual
};

/// Computes residual noise of `series` around its mean-filtered version.
NoiseResult noise_after_mean_filter(std::span<const double> series,
                                    std::size_t window = 5);

/// Lag-k autocorrelation (Pearson, biased normalization by n). Returns 0
/// for a constant series.
double autocorrelation(std::span<const double> series, std::size_t lag);

/// Quantizes a value in [0,1] into one of `num_levels` equal intervals
/// ([0,0.2), [0.2,0.4), ... for 5 levels; 1.0 maps to the top level).
std::size_t usage_level(double value, std::size_t num_levels = 5);

/// One maximal run of consecutive samples in the same level.
struct LevelRun {
  std::size_t level = 0;     ///< quantized level (or raw state value)
  std::int64_t duration = 0; ///< run length in caller's time units
};

/// Run-length encodes the quantized series; `sample_period` scales run
/// lengths into time units (e.g. 300 s samples -> seconds).
std::vector<LevelRun> level_runs(std::span<const double> series,
                                 std::size_t num_levels,
                                 std::int64_t sample_period);

/// Run-length encodes an integer state series (e.g. running-task counts
/// bucketed into [0,9], [10,19], ... for Fig 9).
std::vector<LevelRun> state_runs(std::span<const std::int64_t> states,
                                 std::int64_t sample_period);

}  // namespace cgc::stats
