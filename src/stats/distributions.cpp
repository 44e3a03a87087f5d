#include "stats/distributions.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace cgc::stats {

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
  CGC_CHECK(hi > lo);
}

double Uniform::sample(util::Rng& rng) const { return rng.uniform(lo_, hi_); }

Exponential::Exponential(double mean) : mean_(mean) {
  CGC_CHECK_MSG(mean > 0.0, "exponential mean must be positive");
}

double Exponential::sample(util::Rng& rng) const {
  return rng.exponential(1.0 / mean_);
}

Pareto::Pareto(double xm, double alpha) : xm_(xm), alpha_(alpha) {
  CGC_CHECK(xm > 0.0);
  CGC_CHECK(alpha > 0.0);
}

double Pareto::sample(util::Rng& rng) const {
  // Inverse transform: x = xm / U^{1/alpha}.
  double u = rng.uniform();
  if (u <= 0.0) {
    u = 1e-300;
  }
  return xm_ * std::pow(u, -1.0 / alpha_);
}

double Pareto::mean() const {
  CGC_CHECK_MSG(alpha_ > 1.0, "Pareto mean undefined for alpha <= 1");
  return alpha_ * xm_ / (alpha_ - 1.0);
}

BoundedPareto::BoundedPareto(double lo, double hi, double alpha)
    : lo_(lo), hi_(hi), alpha_(alpha) {
  CGC_CHECK(lo > 0.0);
  CGC_CHECK(hi > lo);
  CGC_CHECK(alpha > 0.0);
}

double BoundedPareto::sample(util::Rng& rng) const {
  // Inverse transform of the truncated Pareto CDF.
  const double u = rng.uniform();
  const double la = std::pow(lo_, alpha_);
  const double ha = std::pow(hi_, alpha_);
  const double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(x, -1.0 / alpha_);
}

double BoundedPareto::mean() const {
  const double la = std::pow(lo_, alpha_);
  if (std::abs(alpha_ - 1.0) < 1e-12) {
    return (std::log(hi_) - std::log(lo_)) * lo_ * hi_ / (hi_ - lo_);
  }
  return (la / (1.0 - std::pow(lo_ / hi_, alpha_))) * (alpha_ / (alpha_ - 1.0)) *
         (std::pow(lo_, 1.0 - alpha_) - std::pow(hi_, 1.0 - alpha_));
}

LogNormal::LogNormal(double median, double sigma)
    : median_(median), sigma_(sigma) {
  CGC_CHECK(median > 0.0);
  CGC_CHECK(sigma >= 0.0);
}

double LogNormal::sample(util::Rng& rng) const {
  return median_ * std::exp(sigma_ * rng.normal());
}

double LogNormal::mean() const {
  return median_ * std::exp(0.5 * sigma_ * sigma_);
}

Mixture::Mixture(std::vector<DistributionPtr> components,
                 std::vector<double> weights)
    : components_(std::move(components)) {
  CGC_CHECK(!components_.empty());
  CGC_CHECK(components_.size() == weights.size());
  double total = 0.0;
  for (const double w : weights) {
    CGC_CHECK_MSG(w >= 0.0, "mixture weights must be non-negative");
    total += w;
  }
  CGC_CHECK_MSG(total > 0.0, "mixture weights must not all be zero");
  weights_.reserve(weights.size());
  cumulative_.reserve(weights.size());
  double acc = 0.0;
  for (const double w : weights) {
    const double norm = w / total;
    weights_.push_back(norm);
    acc += norm;
    cumulative_.push_back(acc);
  }
  cumulative_.back() = 1.0;  // guard against rounding
}

double Mixture::sample(util::Rng& rng) const {
  const double u = rng.uniform();
  const auto it =
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  const std::size_t idx = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cumulative_.begin(),
                               static_cast<std::ptrdiff_t>(
                                   components_.size() - 1)));
  return components_[idx]->sample(rng);
}

double Mixture::mean() const {
  double m = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    m += weights_[i] * components_[i]->mean();
  }
  return m;
}

std::vector<double> sample_many(const Distribution& dist, std::size_t count,
                                util::Rng& rng) {
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(dist.sample(rng));
  }
  return out;
}

}  // namespace cgc::stats
