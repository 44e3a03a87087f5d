#include "stats/fairness.hpp"

namespace cgc::stats {

double jain_fairness(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) {
    return 0.0;
  }
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace cgc::stats
