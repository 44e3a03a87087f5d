// Property tests for the streaming kernels: accuracy against the exact
// batch kernels (with the documented error bounds asserted) and merge
// determinism (bit-identical state regardless of shard order for the
// count-based sketches, and against the unsharded stream).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "stream/sketch.hpp"
#include "util/rng.hpp"

namespace cgc {
namespace {

using stream::CounterBank;
using stream::ExtendedP2;
using stream::StreamingEcdf;

std::vector<double> heavy_tailed_sample(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Mixture resembling task lengths: mostly short, a long tail.
    const double x = rng.bernoulli(0.9) ? rng.exponential(1.0 / 300.0)
                                        : rng.exponential(1.0 / 40000.0);
    xs.push_back(1.0 + x);
  }
  return xs;
}

std::string state_of(const StreamingEcdf& sketch) {
  std::string bytes;
  sketch.append_state(&bytes);
  return bytes;
}

TEST(StreamingEcdfTest, QuantilesWithinRelativeErrorOfExactBatch) {
  for (const double alpha : {0.05, 0.01, 0.005}) {
    const std::vector<double> xs = heavy_tailed_sample(20000, 7);
    StreamingEcdf sketch(alpha);
    for (const double x : xs) {
      sketch.add(x);
    }
    const stats::Ecdf exact(xs);
    ASSERT_EQ(sketch.count(), xs.size());
    for (const double q : {0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
      const double streaming = sketch.quantile(q);
      const double batch = exact.quantile(q);
      EXPECT_LE(std::abs(streaming - batch), alpha * batch * (1.0 + 1e-9))
          << "alpha=" << alpha << " q=" << q << " streaming=" << streaming
          << " batch=" << batch;
    }
    // Extremes are tracked exactly, and the mean inherits the per-value
    // bucket error.
    EXPECT_DOUBLE_EQ(sketch.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_DOUBLE_EQ(sketch.max(), *std::max_element(xs.begin(), xs.end()));
    const double exact_mean = stats::summarize(xs).mean();
    EXPECT_LE(std::abs(sketch.mean() - exact_mean), alpha * exact_mean);
  }
}

TEST(StreamingEcdfTest, MergeIsOrderInvariantAndMatchesUnshardedStream) {
  const std::vector<double> xs = heavy_tailed_sample(9000, 23);
  StreamingEcdf whole(0.01);
  for (const double x : xs) {
    whole.add(x);
  }
  // Three shards of different character.
  std::vector<StreamingEcdf> shards(3, StreamingEcdf(0.01));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    shards[i % 3].add(xs[i]);
  }
  StreamingEcdf forward(0.01);
  for (const StreamingEcdf& s : shards) {
    forward.merge(s);
  }
  StreamingEcdf backward(0.01);
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    backward.merge(*it);
  }
  StreamingEcdf nested(0.01);
  {
    StreamingEcdf pair(0.01);
    pair.merge(shards[2]);
    pair.merge(shards[0]);
    nested.merge(shards[1]);
    nested.merge(pair);
  }
  const std::string expected = state_of(whole);
  EXPECT_EQ(state_of(forward), expected);
  EXPECT_EQ(state_of(backward), expected);
  EXPECT_EQ(state_of(nested), expected);
}

TEST(StreamingEcdfTest, PlotPointsAreAMonotoneCdf) {
  const std::vector<double> xs = heavy_tailed_sample(4000, 31);
  StreamingEcdf sketch(0.02);
  for (const double x : xs) {
    sketch.add(x);
  }
  const auto points = sketch.plot_points(50);
  ASSERT_FALSE(points.empty());
  ASSERT_LE(points.size(), 50u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].first, points[i - 1].first);
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(CounterBankTest, CountsAndDerivedTotals) {
  CounterBank bank;
  bank.add(1, trace::TaskEventType::kSubmit, 5);
  bank.add(4, trace::TaskEventType::kSubmit);
  bank.add(6, trace::TaskEventType::kSubmit, 2);
  bank.add(12, trace::TaskEventType::kSubmit, 3);
  bank.add(2, trace::TaskEventType::kFinish, 4);
  bank.add(2, trace::TaskEventType::kKill);
  bank.add(9, trace::TaskEventType::kEvict, 2);
  EXPECT_EQ(bank.total(), 18);
  EXPECT_EQ(bank.total(trace::TaskEventType::kSubmit), 11);
  EXPECT_EQ(bank.submits_in_band(trace::PriorityBand::kLow), 6);
  EXPECT_EQ(bank.submits_in_band(trace::PriorityBand::kMid), 2);
  EXPECT_EQ(bank.submits_in_band(trace::PriorityBand::kHigh), 3);
  EXPECT_EQ(bank.terminals(), 7);
  EXPECT_EQ(bank.abnormal_terminals(), 3);
  EXPECT_EQ(bank.count(2, trace::TaskEventType::kFinish), 4);
}

TEST(CounterBankTest, MergeIsOrderInvariant) {
  util::Rng rng(77);
  std::vector<CounterBank> shards(4);
  CounterBank whole;
  for (int i = 0; i < 5000; ++i) {
    const int priority = static_cast<int>(rng.uniform_int(1, 12));
    const auto type = static_cast<trace::TaskEventType>(
        rng.uniform_int(0, trace::kNumTaskEventTypes - 1));
    shards[static_cast<std::size_t>(i) % 4].add(priority, type);
    whole.add(priority, type);
  }
  CounterBank forward;
  for (const CounterBank& s : shards) {
    forward.merge(s);
  }
  CounterBank shuffled;
  for (const int i : {2, 0, 3, 1}) {
    shuffled.merge(shards[static_cast<std::size_t>(i)]);
  }
  std::string expected;
  whole.append_state(&expected);
  std::string got_forward;
  forward.append_state(&got_forward);
  std::string got_shuffled;
  shuffled.append_state(&got_shuffled);
  EXPECT_EQ(got_forward, expected);
  EXPECT_EQ(got_shuffled, expected);
}

TEST(ExtendedP2Test, ExactDuringWarmupPhase) {
  ExtendedP2 probe({0.5, 0.9});  // 7 markers
  const std::vector<double> xs = {5, 1, 9, 3, 7};
  for (const double x : xs) {
    probe.add(x);
  }
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  // Rank convention: smallest order statistic with F >= q.
  EXPECT_DOUBLE_EQ(probe.estimate(0), sorted[2]);  // p50 of 5 -> rank 3
  EXPECT_DOUBLE_EQ(probe.estimate(1), sorted[4]);  // p90 of 5 -> rank 5
}

TEST(ExtendedP2Test, TracksSmoothDistributions) {
  util::Rng rng(101);
  ExtendedP2 probe;  // {0.5, 0.9, 0.95, 0.99}
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(rng.uniform(0.0, 1.0));
  }
  for (const double x : xs) {
    probe.add(x);
  }
  const stats::Ecdf exact(xs);
  // P² is a heuristic: assert a loose envelope, not the sketch bound.
  EXPECT_NEAR(probe.estimate(0), exact.quantile(0.50), 0.02);
  EXPECT_NEAR(probe.estimate(1), exact.quantile(0.90), 0.02);
  EXPECT_NEAR(probe.estimate(2), exact.quantile(0.95), 0.02);
  EXPECT_NEAR(probe.estimate(3), exact.quantile(0.99), 0.02);
}

}  // namespace
}  // namespace cgc
