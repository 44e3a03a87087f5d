// cgc::obs tests: the disarmed-overhead contract (no registry or span
// buffer traffic without arming), metric semantics, deterministic
// count-type metrics across pool sizes, and span nesting in the
// Chrome trace export.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cgc::obs {
namespace {

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// Metrics registered so far (all kinds), counted through the export:
// each one is a `"name": ...` entry on its own line.
std::size_t num_sites() {
  std::ostringstream out;
  write_metrics_json(out);
  return count_of(out.str(), "\n    \"");
}

// Span events buffered across all threads, counted through the export.
std::size_t span_count() {
  std::ostringstream out;
  write_chrome_trace(out);
  return count_of(out.str(), "\"ph\": \"X\"");
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { configure(false, false); }
  void TearDown() override { configure(false, false); }
};

// Must run first in this binary: proves that instrumented code paths
// executed while disarmed never touch the metric registry or the span
// buffers — the disarmed cost is the flag load alone.
TEST_F(ObsTest, DisarmedInstrumentationRegistersNothing) {
  ASSERT_FALSE(enabled());
  std::atomic<std::uint64_t> sink{0};
  exec::parallel_for(0, 50000, [&sink](std::size_t i) {
    sink.fetch_add(i % 7, std::memory_order_relaxed);
  });
  {
    Span span("disarmed.span");
    ScopedTimer timer("disarmed.timer");
  }
  EXPECT_EQ(num_sites(), 0u);
  EXPECT_EQ(span_count(), 0u);
  EXPECT_GT(sink.load(), 0u);
}

TEST_F(ObsTest, CounterAddsAndResets) {
  configure(true, false);
  Counter& c = counter("obs_test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Identity is stable: the same name resolves to the same object.
  EXPECT_EQ(&c, &counter("obs_test.counter"));
  reset_metrics();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, LookupAsDifferentKindThrows) {
  configure(true, false);
  counter("obs_test.kind_conflict");
  EXPECT_THROW(gauge("obs_test.kind_conflict"), util::Error);
  EXPECT_THROW(histogram("obs_test.kind_conflict"), util::Error);
}

TEST_F(ObsTest, GaugeTracksLevelAndHighWater) {
  configure(true, false);
  Gauge& g = gauge("obs_test.gauge");
  g.add(5);
  EXPECT_EQ(g.value(), 5);
  EXPECT_EQ(g.max(), 5);
  g.add(-3);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 5);
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  EXPECT_EQ(g.max(), 10);
  g.reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
}

TEST_F(ObsTest, HistogramStatsAndLog2Percentile) {
  configure(true, false);
  Histogram& h = histogram("obs_test.histogram");
  EXPECT_EQ(h.min(), 0u);  // empty
  for (std::uint64_t v = 1; v <= 8; ++v) {
    h.observe(v);
  }
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 36u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
  // Values 1..8 bucket as bit_width: {1}, {2,3}, {4..7}, {8}. The
  // median lands in the [4,8) bucket, whose upper bound is 7.
  EXPECT_EQ(h.approx_percentile(0.5), 7u);
  EXPECT_LE(h.approx_percentile(0.0), 1u);
  EXPECT_GE(h.approx_percentile(1.0), 8u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
}

TEST_F(ObsTest, CountMetricsDeterministicAcrossPoolSizes) {
  configure(true, false);
  Counter& chunks = counter("exec.chunks");
  Counter& regions = counter("exec.regions");
  std::atomic<std::uint64_t> sink{0};
  const auto run_with_workers = [&](std::size_t workers) {
    util::ThreadPool pool(workers);
    exec::ScopedPool scoped(&pool);
    const std::uint64_t chunks_before = chunks.value();
    const std::uint64_t regions_before = regions.value();
    exec::parallel_for(0, 50000, [&sink](std::size_t i) {
      sink.fetch_add(i % 3, std::memory_order_relaxed);
    });
    return std::pair(chunks.value() - chunks_before,
                     regions.value() - regions_before);
  };
  const auto [chunks_1, regions_1] = run_with_workers(1);
  const auto [chunks_8, regions_8] = run_with_workers(8);
  EXPECT_GT(chunks_1, 0u);
  EXPECT_EQ(chunks_1, chunks_8);
  EXPECT_EQ(regions_1, 1u);
  EXPECT_EQ(regions_8, 1u);
}

TEST_F(ObsTest, SpanNestingExportsAsChromeTraceEvents) {
  configure(false, true);
  const std::size_t before = span_count();
  {
    Span outer("outer");
    { Span inner("inner"); }
  }
  EXPECT_EQ(span_count(), before + 2);

  std::ostringstream out;
  write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // Export is non-draining: a second export sees the same spans.
  EXPECT_EQ(span_count(), before + 2);
}

TEST_F(ObsTest, ScopedTimerFeedsHistogramAndSpan) {
  configure(true, true);
  const std::size_t spans_before = span_count();
  { ScopedTimer timer("obs_test.timer"); }
  Histogram& h = histogram("obs_test.timer");
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(span_count(), spans_before + 1);
}

TEST_F(ObsTest, MetricsJsonListsAllThreeKinds) {
  configure(true, false);
  counter("obs_test.json_counter").add(7);
  gauge("obs_test.json_gauge").set(3);
  histogram("obs_test.json_histogram").observe(100);
  std::ostringstream out;
  write_metrics_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_counter\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.json_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

}  // namespace
}  // namespace cgc::obs
