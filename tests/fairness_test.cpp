// Tests for Jain fairness.
#include <gtest/gtest.h>

#include <vector>

#include "stats/fairness.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cgc::stats {
namespace {

TEST(JainFairness, ConstantSampleIsOne) {
  const std::vector<double> v(50, 3.0);
  EXPECT_NEAR(jain_fairness(v), 1.0, 1e-12);
}

TEST(JainFairness, SingleNonZeroIsOneOverN) {
  std::vector<double> v(10, 0.0);
  v[3] = 7.0;
  EXPECT_NEAR(jain_fairness(v), 0.1, 1e-12);
}

TEST(JainFairness, KnownTwoValueCase) {
  // f = (1+3)^2 / (2 * (1 + 9)) = 16/20 = 0.8
  const std::vector<double> v = {1.0, 3.0};
  EXPECT_NEAR(jain_fairness(v), 0.8, 1e-12);
}

TEST(JainFairness, BoundsHold) {
  util::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> v;
    const int n = 5 + static_cast<int>(rng.uniform_int(0, 50));
    for (int i = 0; i < n; ++i) {
      v.push_back(rng.uniform(0.0, 100.0));
    }
    const double f = jain_fairness(v);
    EXPECT_GE(f, 1.0 / static_cast<double>(n) - 1e-12);
    EXPECT_LE(f, 1.0 + 1e-12);
  }
}

TEST(JainFairness, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(jain_fairness(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness(std::vector<double>(5, 0.0)), 0.0);
}

TEST(JainFairness, RelatesToCv) {
  // f = 1 / (1 + CV^2) for any sample; cross-check on a random one.
  util::Rng rng(10);
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) {
    v.push_back(rng.uniform(1.0, 9.0));
  }
  double mean = 0.0, sq = 0.0;
  for (const double x : v) {
    mean += x;
    sq += x * x;
  }
  mean /= static_cast<double>(v.size());
  const double var = sq / static_cast<double>(v.size()) - mean * mean;
  const double cv2 = var / (mean * mean);
  EXPECT_NEAR(jain_fairness(v), 1.0 / (1.0 + cv2), 1e-9);
}

}  // namespace
}  // namespace cgc::stats
