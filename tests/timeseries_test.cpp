// Tests for mean filtering, noise extraction, autocorrelation, and
// level/state run-length analysis.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "stats/timeseries.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cgc::stats {
namespace {

TEST(MeanFilter, WindowOneIsIdentity) {
  const std::vector<double> v = {1.0, 5.0, 2.0, 8.0};
  EXPECT_EQ(mean_filter(v, 1), v);
}

TEST(MeanFilter, ConstantSeriesUnchanged) {
  const std::vector<double> v(20, 3.5);
  for (const double s : mean_filter(v, 5)) {
    EXPECT_DOUBLE_EQ(s, 3.5);
  }
}

TEST(MeanFilter, InteriorIsWindowAverage) {
  const std::vector<double> v = {0.0, 3.0, 6.0, 9.0, 12.0};
  const auto smooth = mean_filter(v, 3);
  EXPECT_DOUBLE_EQ(smooth[2], 6.0);
  EXPECT_DOUBLE_EQ(smooth[1], 3.0);
  // Edges use the partial window.
  EXPECT_DOUBLE_EQ(smooth[0], 1.5);
  EXPECT_DOUBLE_EQ(smooth[4], 10.5);
}

TEST(MeanFilter, EvenWindowThrows) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_THROW(mean_filter(v, 4), util::Error);
}

TEST(Noise, ConstantSeriesHasZeroNoise) {
  const std::vector<double> v(50, 1.0);
  const NoiseResult r = noise_after_mean_filter(v, 5);
  EXPECT_DOUBLE_EQ(r.mean_abs, 0.0);
  EXPECT_DOUBLE_EQ(r.max_abs, 0.0);
}

TEST(Noise, ScalesWithAmplitude) {
  util::Rng rng(3);
  std::vector<double> small, large;
  for (int i = 0; i < 2000; ++i) {
    const double z = rng.normal();
    small.push_back(0.5 + 0.01 * z);
    large.push_back(0.5 + 0.10 * z);
  }
  const double n_small = noise_after_mean_filter(small).mean_abs;
  const double n_large = noise_after_mean_filter(large).mean_abs;
  EXPECT_NEAR(n_large / n_small, 10.0, 0.5);
}

TEST(Noise, SmoothTrendHasTinyNoise) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(std::sin(2.0 * std::numbers::pi * i / 500.0));
  }
  // A slow sine is almost unchanged by a short mean filter.
  EXPECT_LT(noise_after_mean_filter(v, 5).mean_abs, 0.001);
}

TEST(Autocorrelation, ConstantSeriesIsZero) {
  const std::vector<double> v(100, 2.0);
  EXPECT_DOUBLE_EQ(autocorrelation(v, 1), 0.0);
}

TEST(Autocorrelation, WhiteNoiseNearZero) {
  util::Rng rng(4);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) {
    v.push_back(rng.normal());
  }
  EXPECT_NEAR(autocorrelation(v, 1), 0.0, 0.03);
}

TEST(Autocorrelation, SlowSineIsHighAtLagOne) {
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) {
    v.push_back(std::sin(2.0 * std::numbers::pi * i / 1000.0));
  }
  EXPECT_GT(autocorrelation(v, 1), 0.99);
}

TEST(Autocorrelation, AlternatingSeriesIsNegative) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  EXPECT_LT(autocorrelation(v, 1), -0.9);
}

TEST(Autocorrelation, ShortSeriesIsZero) {
  const std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(autocorrelation(v, 5), 0.0);
}

TEST(UsageLevel, QuantizesFiveLevels) {
  EXPECT_EQ(usage_level(0.0), 0u);
  EXPECT_EQ(usage_level(0.19), 0u);
  EXPECT_EQ(usage_level(0.2), 1u);
  EXPECT_EQ(usage_level(0.59), 2u);
  EXPECT_EQ(usage_level(0.99), 4u);
  EXPECT_EQ(usage_level(1.0), 4u);
  EXPECT_EQ(usage_level(5.0), 4u);   // clamped
  EXPECT_EQ(usage_level(-0.1), 0u);  // clamped
}

TEST(LevelRuns, EncodesRuns) {
  // levels: 0 0 1 1 1 0
  const std::vector<double> v = {0.1, 0.15, 0.3, 0.25, 0.39, 0.05};
  const auto runs = level_runs(v, 5, 300);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].level, 0u);
  EXPECT_EQ(runs[0].duration, 600);
  EXPECT_EQ(runs[1].level, 1u);
  EXPECT_EQ(runs[1].duration, 900);
  EXPECT_EQ(runs[2].level, 0u);
  EXPECT_EQ(runs[2].duration, 300);
}

TEST(LevelRuns, TotalDurationEqualsSeriesLength) {
  util::Rng rng(6);
  std::vector<double> v;
  for (int i = 0; i < 777; ++i) {
    v.push_back(rng.uniform());
  }
  const auto runs = level_runs(v, 5, 300);
  std::int64_t total = 0;
  for (const auto& run : runs) {
    total += run.duration;
  }
  EXPECT_EQ(total, 777 * 300);
}

TEST(StateRuns, EncodesIntegerStates) {
  const std::vector<std::int64_t> states = {2, 2, 2, 5, 5, 1};
  const auto runs = state_runs(states, 60);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].level, 2u);
  EXPECT_EQ(runs[0].duration, 180);
  EXPECT_EQ(runs[1].level, 5u);
  EXPECT_EQ(runs[2].level, 1u);
}

TEST(StateRuns, EmptyInputGivesNoRuns) {
  const std::vector<std::int64_t> states;
  EXPECT_TRUE(state_runs(states, 60).empty());
}

}  // namespace
}  // namespace cgc::stats
