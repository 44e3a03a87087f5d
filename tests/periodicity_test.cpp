// Tests for periodicity detection.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "stats/periodicity.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cgc::stats {
namespace {

std::vector<double> sine_series(std::size_t n, double period,
                                double noise_sigma, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / period) +
           noise_sigma * rng.normal();
  }
  return v;
}

TEST(AcfFunction, LagOneMatchesAutocorrelation) {
  const auto v = sine_series(2000, 100.0, 0.1, 1);
  const auto acf = autocorrelation_function(v, 10);
  ASSERT_EQ(acf.size(), 10u);
  // acf[0] is the lag-1 value; a slow sine has high lag-1 correlation.
  EXPECT_GT(acf[0], 0.9);
}

TEST(AcfFunction, ConstantSeriesIsAllZero) {
  const std::vector<double> v(100, 2.5);
  for (const double rho : autocorrelation_function(v, 5)) {
    EXPECT_DOUBLE_EQ(rho, 0.0);
  }
}

TEST(AcfFunction, SinePeaksAtPeriod) {
  const auto v = sine_series(5000, 50.0, 0.05, 2);
  const auto acf = autocorrelation_function(v, 120);
  // The ACF of a sine peaks at its period (lag 50 -> index 49).
  const auto max_it = std::max_element(acf.begin() + 20, acf.end());
  const auto peak_lag = (max_it - acf.begin()) + 1;
  EXPECT_NEAR(static_cast<double>(peak_lag), 50.0, 2.0);
}

TEST(DetectPeriodicity, FindsDiurnalCycle) {
  // 30 days of hourly samples with a 24-hour cycle — the Grid pattern.
  const auto v = sine_series(24 * 30, 24.0, 0.3, 3);
  const auto result = detect_periodicity(v, 4, 48);
  EXPECT_TRUE(result.significant);
  EXPECT_NEAR(static_cast<double>(result.dominant_period), 24.0, 2.0);
  EXPECT_GT(result.strength, 0.3);
}

TEST(DetectPeriodicity, WhiteNoiseIsNotSignificant) {
  util::Rng rng(4);
  std::vector<double> v(24 * 30);
  for (double& x : v) {
    x = rng.normal();
  }
  const auto result = detect_periodicity(v, 4, 48);
  EXPECT_FALSE(result.significant);
}

TEST(DetectPeriodicity, ShortSeriesIsNotSignificant) {
  const std::vector<double> v = {1.0, 2.0, 3.0};
  const auto result = detect_periodicity(v, 4, 48);
  EXPECT_FALSE(result.significant);
  EXPECT_EQ(result.dominant_period, 0u);
}

TEST(DetectPeriodicity, InvalidLagsThrow) {
  const std::vector<double> v(100, 1.0);
  EXPECT_THROW(detect_periodicity(v, 1, 48), util::Error);
  EXPECT_THROW(detect_periodicity(v, 10, 10), util::Error);
}

}  // namespace
}  // namespace cgc::stats
