// Empirical cumulative distribution function.
//
// Paper reference: Section II.B introduces the CDF as the primary
// distribution view, and Figs 3 (job length), 5 (submission interval),
// and 6 (per-job CPU/memory) are plain CDF plots; the mass-count
// figures (4, 9, 11, 12) reuse it as their "count" half. Implements the
// standard empirical estimator F_n(x) = (1/n) Σ 1{X_i <= x} — the
// right-continuous step function through the order statistics. Ecdf
// stores the sorted sample once (sorting fans out via cgc::exec) and
// answers evaluations, quantiles, and downsampled plot series.
#pragma once

#include <span>
#include <utility>
#include <vector>

namespace cgc::stats {

/// Empirical CDF built from a sample. Evaluation uses the standard
/// right-continuous definition F(x) = (# samples <= x) / n.
class Ecdf {
 public:
  Ecdf() = default;
  explicit Ecdf(std::vector<double> samples);

  bool empty() const { return sorted_.empty(); }
  std::size_t size() const { return sorted_.size(); }

  /// F(x) = P(X <= x).
  double operator()(double x) const;

  /// Smallest sample value v with F(v) >= q.
  double quantile(double q) const;

  double min() const;
  double max() const;
  double mean() const;

  /// Sorted underlying sample (read-only view).
  std::span<const double> sorted() const { return sorted_; }

  /// Produces up to `max_points` (x, F(x)) pairs evenly spaced in rank —
  /// exactly what a plotting tool needs for Figs 3/5/6.
  std::vector<std::pair<double, double>> plot_points(
      std::size_t max_points = 200) const;

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
};

}  // namespace cgc::stats
