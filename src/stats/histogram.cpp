#include "stats/histogram.hpp"

#include "stats/bucketing.hpp"
#include "util/check.hpp"

namespace cgc::stats {

Histogram::Histogram(double lo, double hi, std::size_t num_bins)
    : lo_(lo), hi_(hi), counts_(num_bins, 0.0) {
  CGC_CHECK_MSG(hi > lo, "histogram range must be non-empty");
  CGC_CHECK_MSG(num_bins > 0, "histogram needs at least one bin");
  width_ = (hi - lo) / static_cast<double>(num_bins);
}

std::size_t Histogram::bin_index(double x) const {
  return bucketing::linear_index(x, lo_, width_, counts_.size());
}

void Histogram::add(double x, double weight) {
  counts_[bin_index(x)] += weight;
  total_ += weight;
}

void Histogram::add_all(std::span<const double> values) {
  for (const double v : values) {
    add(v);
  }
}

double Histogram::bin_center(std::size_t b) const {
  return bucketing::linear_center(b, lo_, width_);
}

double Histogram::pmf(std::size_t b) const {
  return total_ == 0.0 ? 0.0 : counts_[b] / total_;
}

}  // namespace cgc::stats
