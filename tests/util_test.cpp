// Unit tests for cgc::util basics: CGC_CHECK, Rng, time utils, tables.
#include <gtest/gtest.h>

#include <set>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/time_util.hpp"

namespace cgc::util {
namespace {

TEST(Check, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(CGC_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsWithExpression) {
  try {
    CGC_CHECK(1 + 1 == 3);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 + 1 == 3"), std::string::npos);
  }
}

TEST(Check, FailingCheckMsgIncludesMessage) {
  try {
    CGC_CHECK_MSG(false, "the custom message");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("the custom message"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != b.uniform()) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(1, 6);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all faces of the die show up
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(99);
  Rng split = a.split();
  // The split stream must not replay the parent's stream.
  Rng parent_copy(99);
  (void)parent_copy.engine()();  // consume the draw used by split()
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (split.uniform() != parent_copy.uniform()) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(TimeUtil, Conversions) {
  EXPECT_DOUBLE_EQ(to_days(kSecondsPerDay), 1.0);
  EXPECT_DOUBLE_EQ(to_minutes(90), 1.5);
  EXPECT_EQ(kSecondsPerMonth, 30 * 86400);
  EXPECT_EQ(kSamplePeriod, 300);
}

TEST(TimeUtil, FormatDuration) {
  EXPECT_EQ(format_duration(0), "00:00:00");
  EXPECT_EQ(format_duration(3661), "01:01:01");
  EXPECT_EQ(format_duration(2 * kSecondsPerDay + 3600), "2d 01:00:00");
  EXPECT_EQ(format_duration(-60), "-00:01:00");
}

TEST(Table, RendersAlignedRows) {
  AsciiTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  AsciiTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell_int(1234567), "1,234,567");
  EXPECT_EQ(cell_int(-1234), "-1,234");
  EXPECT_EQ(cell_int(999), "999");
  EXPECT_EQ(cell_int(0), "0");
  EXPECT_EQ(cell_ratio(6.4, 93.6), "6/94");
  EXPECT_EQ(cell_pct(0.5), "50.0%");
  EXPECT_EQ(cell_pct(0.123456, 2), "12.35%");
}

}  // namespace
}  // namespace cgc::util
