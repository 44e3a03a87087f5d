// Fixed-range histogram / empirical PDF.
//
// Used for the paper's Figure 2 (priority histogram) and Figure 7
// (PDF of normalized maximum host load).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cgc::stats {

/// Equal-width histogram over [lo, hi]. Values outside the range clamp
/// into the first/last bin (the paper's normalized metrics live in [0,1],
/// so clamping only absorbs floating-point spill).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t num_bins);

  void add(double x, double weight = 1.0);
  void add_all(std::span<const double> values);

  std::size_t num_bins() const { return counts_.size(); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Center of bin b.
  double bin_center(std::size_t b) const;
  /// Raw (weighted) count of bin b.
  double count(std::size_t b) const { return counts_[b]; }
  /// Total weight added.
  double total() const { return total_; }

  /// Probability mass of bin b: count(b)/total. 0 if empty.
  double pmf(std::size_t b) const;

  /// Bin index for a value (after clamping).
  std::size_t bin_index(double x) const;

 private:
  double lo_;
  double hi_;
  double width_;
  double total_ = 0.0;
  std::vector<double> counts_;
};

}  // namespace cgc::stats
