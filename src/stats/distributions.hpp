// Parametric distributions for workload synthesis.
//
// The workload generators express job lengths, inter-arrival gaps,
// tasks-per-job, and resource demands as draws from these distributions.
// Each type provides sample(Rng&), and where closed forms exist, mean()
// and quantile() — the calibration tests compare those against the
// paper's reported statistics.
#pragma once

#include <memory>
#include <vector>

#include "util/rng.hpp"

namespace cgc::stats {

/// Abstract positive-valued distribution.
class Distribution {
 public:
  virtual ~Distribution() = default;
  /// Draws one sample.
  virtual double sample(util::Rng& rng) const = 0;
  /// Analytical mean; throws if the mean is undefined.
  virtual double mean() const = 0;
};

using DistributionPtr = std::shared_ptr<const Distribution>;

/// Uniform on [lo, hi).
class Uniform final : public Distribution {
 public:
  Uniform(double lo, double hi);
  double sample(util::Rng& rng) const override;
  double mean() const override { return 0.5 * (lo_ + hi_); }

 private:
  double lo_, hi_;
};

/// Exponential with the given mean.
class Exponential final : public Distribution {
 public:
  explicit Exponential(double mean);
  double sample(util::Rng& rng) const override;
  double mean() const override { return mean_; }

 private:
  double mean_;
};

/// Pareto (Lomax-free, classic): P(X > x) = (xm/x)^alpha for x >= xm.
class Pareto final : public Distribution {
 public:
  Pareto(double xm, double alpha);
  double sample(util::Rng& rng) const override;
  double mean() const override;  ///< throws for alpha <= 1
  double alpha() const { return alpha_; }

 private:
  double xm_, alpha_;
};

/// Bounded Pareto on [lo, hi] with shape alpha (alpha != 0); heavy-tailed
/// but with finite support — used for task-length tails (max 29 days).
class BoundedPareto final : public Distribution {
 public:
  BoundedPareto(double lo, double hi, double alpha);
  double sample(util::Rng& rng) const override;
  double mean() const override;

 private:
  double lo_, hi_, alpha_;
};

/// Lognormal parameterized by the median (= e^mu) and sigma.
class LogNormal final : public Distribution {
 public:
  LogNormal(double median, double sigma);
  double sample(util::Rng& rng) const override;
  double mean() const override;
  double median() const { return median_; }
  double sigma() const { return sigma_; }

 private:
  double median_, sigma_;
};

/// Finite mixture of component distributions with given weights.
class Mixture final : public Distribution {
 public:
  Mixture(std::vector<DistributionPtr> components,
          std::vector<double> weights);
  double sample(util::Rng& rng) const override;
  double mean() const override;

 private:
  std::vector<DistributionPtr> components_;
  std::vector<double> cumulative_;  // normalized cumulative weights
  std::vector<double> weights_;     // normalized weights
};

/// Draws `count` samples into a vector.
std::vector<double> sample_many(const Distribution& dist, std::size_t count,
                                util::Rng& rng);

}  // namespace cgc::stats
