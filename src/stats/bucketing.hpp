// Shared bucketing helpers (header-only).
//
// Three bucketing schemes recur across the repo and used to be
// hand-rolled at each site:
//
//   * linear  — equal-width bins over [lo, hi] with clamping
//     (stats::Histogram, the paper's Fig 2/Fig 7 PDFs);
//   * log2    — one bucket per bit_width of a u64
//     (cgc::obs::Histogram's duration buckets);
//   * log-γ   — geometric buckets with ratio γ, giving a bounded
//     *relative* error of (γ-1)/(γ+1) per bucket (the cgc::stream
//     quantile sketch / incremental ECDF).
//
// The functions are pure and header-only so cgc_obs can use them
// without linking cgc_stats (cgc_exec links cgc_obs, and cgc_stats
// links cgc_exec — a library edge here would be a cycle).
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace cgc::stats::bucketing {

// ---------------------------------------------------------------------------
// Linear (equal-width) buckets over [lo, hi], clamping outliers.
// ---------------------------------------------------------------------------

/// Bin index of `x` among `num_bins` equal-width bins over [lo, hi].
/// Values outside the range clamp into the first/last bin.
inline std::size_t linear_index(double x, double lo, double width,
                                std::size_t num_bins) {
  if (!(x > lo)) {  // also catches NaN
    return 0;
  }
  const auto raw = static_cast<std::size_t>((x - lo) / width);
  return raw >= num_bins ? num_bins - 1 : raw;
}

/// Center of linear bin b.
inline double linear_center(std::size_t b, double lo, double width) {
  return lo + (static_cast<double>(b) + 0.5) * width;
}

// ---------------------------------------------------------------------------
// Log2 buckets: bucket b holds u64 values with bit_width(v) == b, i.e.
// bucket 0 is exactly {0} and bucket b >= 1 covers [2^(b-1), 2^b).
// ---------------------------------------------------------------------------

/// One bucket per possible bit_width of a u64 (0..64).
inline constexpr std::size_t kNumLog2Buckets = 65;

/// Bucket index of `v` (== std::bit_width(v)).
inline std::size_t log2_index(std::uint64_t v) {
  return static_cast<std::size_t>(std::bit_width(v));
}

/// Inclusive upper bound of log2 bucket b: the largest value the bucket
/// can hold (2^b - 1; saturates at u64 max for b >= 64).
inline std::uint64_t log2_upper(std::size_t b) {
  return b >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
}

// ---------------------------------------------------------------------------
// Log-γ (geometric) buckets over positive doubles.
//
// Bucket i (i >= 1) covers (γ^(i-1), γ^i]; bucket 0 holds values <=
// `zero_threshold` (zero, negative, subnormal noise). Reporting the
// geometric mean of a bucket's bounds as its representative value keeps
// the relative error of any reconstructed sample within
// (γ-1)/(γ+1) — the DDSketch guarantee the stream layer documents.
// ---------------------------------------------------------------------------

/// Values at or below this land in the zero bucket. Chosen well under
/// any second-scale duration or normalized-load value the repo tracks.
inline constexpr double kLogZeroThreshold = 1e-9;

/// γ for a target relative error α: γ = (1+α)/(1-α).
inline double log_gamma_for_error(double alpha) {
  return (1.0 + alpha) / (1.0 - alpha);
}

/// Bucket index of `x` for ratio γ (precomputed 1/ln(γ) for the hot
/// path). Index 0 is the zero bucket; positive values start at 1.
inline std::int32_t log_index(double x, double inv_ln_gamma) {
  if (!(x > kLogZeroThreshold)) {  // also catches NaN
    return 0;
  }
  const double raw = std::ceil(std::log(x) * inv_ln_gamma);
  return 1 + static_cast<std::int32_t>(raw);
}

/// Representative value of bucket i (geometric mean of its bounds);
/// 0.0 for the zero bucket.
inline double log_value(std::int32_t i, double ln_gamma) {
  if (i <= 0) {
    return 0.0;
  }
  // Bucket covers (γ^(i-2), γ^(i-1)] after the +1 shift in log_index;
  // the geometric midpoint is γ^(i-1.5).
  return std::exp((static_cast<double>(i) - 1.5) * ln_gamma);
}

}  // namespace cgc::stats::bucketing
