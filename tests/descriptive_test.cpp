// Tests for streaming moments and quantiles.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cgc::stats {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownSmallSample) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, VarianceDividesByN) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 1.0);
}

/// Property: merging shards must equal a single-pass computation,
/// across random shard splits and values.
class MergeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MergeProperty, MergeEqualsSinglePass) {
  util::Rng rng(GetParam());
  const std::size_t n = 100 + static_cast<std::size_t>(rng.uniform_int(0, 900));
  std::vector<double> values(n);
  for (double& v : values) {
    v = rng.normal(10.0, 4.0);
  }
  RunningStats whole;
  for (const double v : values) {
    whole.add(v);
  }
  // Split into 3 shards at random cut points.
  const std::size_t c1 = static_cast<std::size_t>(rng.uniform_int(0, n));
  const std::size_t c2 =
      c1 + static_cast<std::size_t>(
               rng.uniform_int(0, static_cast<std::int64_t>(n - c1)));
  RunningStats a, b, c;
  for (std::size_t i = 0; i < c1; ++i) a.add(values[i]);
  for (std::size_t i = c1; i < c2; ++i) b.add(values[i]);
  for (std::size_t i = c2; i < n; ++i) c.add(values[i]);
  a.merge(b);
  a.merge(c);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Quantile, MedianAndExtremes) {
  const std::vector<double> v = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(median(v), 3.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 7.5);
}

TEST(Quantile, EmptyThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), util::Error);
}

TEST(Quantile, OutOfRangeQThrows) {
  const std::vector<double> v = {1.0};
  EXPECT_THROW(quantile(v, 1.5), util::Error);
  EXPECT_THROW(quantile(v, -0.1), util::Error);
}

TEST(FractionBelow, CountsStrictlyBelow) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(fraction_below(v, 3.0), 0.5);
  EXPECT_DOUBLE_EQ(fraction_below(v, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(fraction_below(v, 10.0), 1.0);
}

TEST(Summarize, MatchesManualLoop) {
  const std::vector<double> v = {1.5, 2.5, 3.5};
  const RunningStats s = summarize(v);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

}  // namespace
}  // namespace cgc::stats
