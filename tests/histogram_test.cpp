// Tests for Histogram.
#include <gtest/gtest.h>

#include "stats/histogram.hpp"
#include "util/check.hpp"

namespace cgc::stats {
namespace {

TEST(Histogram, BinIndexing) {
  Histogram h(0.0, 1.0, 10);
  EXPECT_EQ(h.bin_index(0.05), 0u);
  EXPECT_EQ(h.bin_index(0.95), 9u);
  EXPECT_EQ(h.bin_index(0.5), 5u);
}

TEST(Histogram, OutOfRangeClampsToEdges) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(99.0);
  EXPECT_DOUBLE_EQ(h.count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.count(3), 1.0);
}

TEST(Histogram, PmfSumsToOne) {
  Histogram h(0.0, 10.0, 5);
  for (int i = 0; i < 100; ++i) {
    h.add(static_cast<double>(i % 10));
  }
  double total = 0.0;
  for (std::size_t b = 0; b < h.num_bins(); ++b) {
    total += h.pmf(b);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Histogram, WeightedAdds) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1, 3.0);
  h.add(0.9, 1.0);
  EXPECT_DOUBLE_EQ(h.pmf(0), 0.75);
  EXPECT_DOUBLE_EQ(h.pmf(1), 0.25);
}

TEST(Histogram, BinCenters) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 0.125);
  EXPECT_DOUBLE_EQ(h.bin_center(3), 0.875);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(Histogram(1.0, 1.0, 10), util::Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), util::Error);
}

TEST(Histogram, AddAllFromSpan) {
  Histogram h(0.0, 1.0, 2);
  const std::vector<double> values = {0.1, 0.2, 0.8};
  h.add_all(values);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
}

}  // namespace
}  // namespace cgc::stats
