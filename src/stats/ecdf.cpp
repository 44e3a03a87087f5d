#include "stats/ecdf.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hpp"
#include "util/check.hpp"

namespace cgc::stats {

Ecdf::Ecdf(std::vector<double> samples) : sorted_(std::move(samples)) {
  // Construction cost is the sort; month-scale samples (task lengths,
  // usage samples) fan out across the pool. parallel_sort and the
  // chunked sum are deterministic at any thread count (exec contract),
  // so Ecdf-derived outputs stay bit-identical serial vs parallel.
  exec::parallel_sort(&sorted_);
  const double sum = exec::parallel_reduce(
      0, sorted_.size(), 0.0,
      [this](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          s += sorted_[i];
        }
        return s;
      },
      [](double& acc, double part) { acc += part; });
  mean_ = sorted_.empty() ? 0.0 : sum / static_cast<double>(sorted_.size());
}

double Ecdf::operator()(double x) const {
  if (sorted_.empty()) {
    return 0.0;
  }
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const {
  CGC_CHECK_MSG(!sorted_.empty(), "quantile of empty Ecdf");
  CGC_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
  if (q <= 0.0) {
    return sorted_.front();
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_.size())));
  return sorted_[std::min(rank == 0 ? 0 : rank - 1, sorted_.size() - 1)];
}

double Ecdf::min() const {
  CGC_CHECK(!sorted_.empty());
  return sorted_.front();
}

double Ecdf::max() const {
  CGC_CHECK(!sorted_.empty());
  return sorted_.back();
}

double Ecdf::mean() const { return mean_; }

std::vector<std::pair<double, double>> Ecdf::plot_points(
    std::size_t max_points) const {
  std::vector<std::pair<double, double>> points;
  if (sorted_.empty()) {
    return points;
  }
  const std::size_t n = sorted_.size();
  const std::size_t step = std::max<std::size_t>(1, n / max_points);
  points.reserve(n / step + 2);
  for (std::size_t i = 0; i < n; i += step) {
    points.emplace_back(sorted_[i],
                        static_cast<double>(i + 1) / static_cast<double>(n));
  }
  if (points.back().first != sorted_.back()) {
    points.emplace_back(sorted_.back(), 1.0);
  }
  return points;
}

}  // namespace cgc::stats
