// Tests for the empirical CDF.
#include <gtest/gtest.h>

#include "stats/ecdf.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cgc::stats {
namespace {

TEST(Ecdf, BasicEvaluation) {
  const Ecdf e(std::vector<double>{1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(e(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e(100.0), 1.0);
}

TEST(Ecdf, MonotoneNonDecreasing) {
  util::Rng rng(11);
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) {
    sample.push_back(rng.normal(0.0, 2.0));
  }
  const Ecdf e(std::move(sample));
  double prev = 0.0;
  for (double x = -6.0; x <= 6.0; x += 0.05) {
    const double f = e(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(Ecdf, QuantileIsLeftInverse) {
  const Ecdf e(std::vector<double>{10.0, 20.0, 30.0, 40.0, 50.0});
  EXPECT_DOUBLE_EQ(e.quantile(0.2), 10.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.21), 20.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 50.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 10.0);
}

TEST(Ecdf, QuantileRoundTripProperty) {
  util::Rng rng(42);
  std::vector<double> sample;
  for (int i = 0; i < 1000; ++i) {
    sample.push_back(rng.exponential(0.1));
  }
  const Ecdf e(std::move(sample));
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    // F(F^{-1}(q)) >= q and the previous sample is below q.
    EXPECT_GE(e(e.quantile(q)), q - 1e-12);
  }
}

TEST(Ecdf, MinMaxMean) {
  const Ecdf e(std::vector<double>{3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(e.min(), 1.0);
  EXPECT_DOUBLE_EQ(e.max(), 3.0);
  EXPECT_DOUBLE_EQ(e.mean(), 2.0);
}

TEST(Ecdf, PlotPointsEndAtOne) {
  util::Rng rng(5);
  std::vector<double> sample;
  for (int i = 0; i < 987; ++i) {
    sample.push_back(rng.uniform());
  }
  const Ecdf e(std::move(sample));
  const auto points = e.plot_points(100);
  EXPECT_LE(points.size(), 120u);
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].first, points[i - 1].first);
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
}

TEST(Ecdf, EmptyQuantileThrows) {
  const Ecdf e;
  EXPECT_TRUE(e.empty());
  EXPECT_THROW(e.quantile(0.5), util::Error);
}

}  // namespace
}  // namespace cgc::stats
