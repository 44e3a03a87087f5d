// Maximum-likelihood fitting of the library's workload distributions.
//
// Closes the loop between traces and models: given an observed sample
// (e.g. task lengths parsed from a real trace), recover the parameters
// of the generator that would reproduce it. No shipped binary calls it
// yet; the tests hold it to a round-trip property (sample -> fit ->
// match) until the deferred MLE-fitted models (ROADMAP) build on it.
#pragma once

#include <span>

namespace cgc::stats {

/// MLE of an exponential mean (the sample mean).
double fit_exponential_mean(std::span<const double> values);

/// Fitted Pareto parameters via MLE with xm = min(sample).
struct ParetoFit {
  double xm = 0.0;
  double alpha = 0.0;
};
ParetoFit fit_pareto(std::span<const double> values);

/// Fitted lognormal via MLE on log-values.
struct LogNormalFit {
  double median = 0.0;  ///< e^{mu}
  double sigma = 0.0;
};
LogNormalFit fit_lognormal(std::span<const double> values);

/// One-sample KS statistic of `values` against the lognormal CDF with the
/// given parameters — a goodness-of-fit score for fitted models.
double ks_lognormal(std::span<const double> values, double median,
                    double sigma);

/// One-sample KS statistic against an exponential with the given mean.
double ks_exponential(std::span<const double> values, double mean);

}  // namespace cgc::stats
