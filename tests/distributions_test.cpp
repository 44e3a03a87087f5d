// Tests for the parametric distribution samplers: sampled means match
// analytic means, supports are respected.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "stats/distributions.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cgc::stats {
namespace {

double sample_mean(const Distribution& d, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += d.sample(rng);
  }
  return total / static_cast<double>(n);
}

/// Property sweep: every distribution's sample mean converges to its
/// analytic mean() within a relative tolerance.
struct MeanCase {
  const char* name;
  DistributionPtr dist;
  double rel_tol;
};

class MeanMatchesAnalytic : public ::testing::TestWithParam<MeanCase> {};

TEST_P(MeanMatchesAnalytic, SampleMeanConverges) {
  const MeanCase& c = GetParam();
  const double analytic = c.dist->mean();
  const double sampled = sample_mean(*c.dist, 200000, 424242);
  EXPECT_NEAR(sampled / analytic, 1.0, c.rel_tol) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, MeanMatchesAnalytic,
    ::testing::Values(
        MeanCase{"uniform", std::make_shared<Uniform>(2.0, 10.0), 0.01},
        MeanCase{"exponential", std::make_shared<Exponential>(42.0), 0.01},
        MeanCase{"pareto", std::make_shared<Pareto>(1.0, 3.0), 0.02},
        MeanCase{"bounded_pareto",
                 std::make_shared<BoundedPareto>(1.0, 1000.0, 1.5), 0.03},
        MeanCase{"bounded_pareto_alpha_lt1",
                 std::make_shared<BoundedPareto>(10.0, 1e5, 0.5), 0.05},
        MeanCase{"lognormal", std::make_shared<LogNormal>(100.0, 1.0), 0.02}),
    [](const auto& info) { return info.param.name; });

TEST(Uniform, RespectssBounds) {
  util::Rng rng(2);
  const Uniform d(5.0, 6.0);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.sample(rng);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(Pareto, RespectsLowerBound) {
  util::Rng rng(3);
  const Pareto d(2.0, 1.5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(d.sample(rng), 2.0);
  }
}

TEST(Pareto, MeanUndefinedForSmallAlpha) {
  const Pareto d(1.0, 0.9);
  EXPECT_THROW(d.mean(), util::Error);
}

TEST(Pareto, TailIndexControlsExtremes) {
  util::Rng rng(4);
  const Pareto heavy(1.0, 0.8);
  const Pareto light(1.0, 3.0);
  double max_heavy = 0.0, max_light = 0.0;
  for (int i = 0; i < 20000; ++i) {
    max_heavy = std::max(max_heavy, heavy.sample(rng));
    max_light = std::max(max_light, light.sample(rng));
  }
  EXPECT_GT(max_heavy, 100.0 * max_light);
}

TEST(BoundedPareto, RespectsBothBounds) {
  util::Rng rng(5);
  const BoundedPareto d(3.0, 30.0, 1.0);
  for (int i = 0; i < 5000; ++i) {
    const double v = d.sample(rng);
    EXPECT_GE(v, 3.0);
    EXPECT_LE(v, 30.0);
  }
}

TEST(BoundedPareto, AlphaNearOneMeanIsFinite) {
  const BoundedPareto d(1.0, 100.0, 1.0);
  // Analytic limit at alpha=1: (ln H - ln L) * L * H / (H - L).
  EXPECT_NEAR(d.mean(), std::log(100.0) * 100.0 / 99.0, 1e-9);
}

TEST(LogNormal, MedianIsParameter) {
  util::Rng rng(6);
  const LogNormal d(50.0, 1.2);
  std::vector<double> v = sample_many(d, 40001, rng);
  std::nth_element(v.begin(), v.begin() + 20000, v.end());
  EXPECT_NEAR(v[20000] / 50.0, 1.0, 0.05);
}

TEST(LogNormal, ZeroSigmaIsDeterministic) {
  util::Rng rng(7);
  const LogNormal d(8.0, 0.0);
  EXPECT_DOUBLE_EQ(d.sample(rng), 8.0);
  EXPECT_DOUBLE_EQ(d.mean(), 8.0);
}

TEST(Mixture, WeightsControlComponents) {
  util::Rng rng(8);
  const Mixture mix({std::make_shared<Uniform>(0.5, 1.5),
                     std::make_shared<Uniform>(99.5, 100.5)},
                    {0.75, 0.25});
  EXPECT_DOUBLE_EQ(mix.mean(), 0.75 * 1.0 + 0.25 * 100.0);
  int low = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    if (mix.sample(rng) < 50.0) {
      ++low;
    }
  }
  EXPECT_NEAR(static_cast<double>(low) / kN, 0.75, 0.02);
}

TEST(Mixture, InvalidWeightsThrow) {
  EXPECT_THROW(Mixture({std::make_shared<Exponential>(1.0)}, {-1.0}),
               util::Error);
  EXPECT_THROW(Mixture({std::make_shared<Exponential>(1.0)}, {0.0}),
               util::Error);
  EXPECT_THROW(Mixture({}, {}), util::Error);
}

TEST(SampleMany, ReturnsRequestedCount) {
  util::Rng rng(12);
  const Exponential d(1.0);
  EXPECT_EQ(sample_many(d, 123, rng).size(), 123u);
}

}  // namespace
}  // namespace cgc::stats
