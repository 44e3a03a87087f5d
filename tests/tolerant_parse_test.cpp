// Tests for tolerant trace parsing through load_trace: bad-line
// accounting in the LoadReport, the bad-line cap, strict-mode
// compatibility, and the parser fault sites (trace.parse_line
// skip-and-account vs io.read propagation).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "fault/fault.hpp"
#include "trace/loader.hpp"
#include "trace/parse_report.hpp"
#include "util/check.hpp"

namespace cgc::trace {
namespace {

class TolerantParseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::configure("");
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_tolerant_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::configure("");
    std::filesystem::remove_all(dir_);
  }

  std::string write_file(const std::string& name,
                         const std::string& content) {
    const std::string p = (dir_ / name).string();
    std::ofstream out(p);
    out << content;
    return p;
  }

  std::filesystem::path dir_;
};

/// 18-field SWF row for job `id`, all values well-formed.
std::string swf_row(int id) {
  return std::to_string(id) +
         " 100 5 60.0 4 -1 1024 4 -1 -1 1 7 -1 -1 -1 -1 -1 -1\n";
}

constexpr char kBadRow[] = "2 100 not_a_number 60.0 4\n";

/// Options that read `format`, strict or skipping malformed records.
LoadOptions as(TraceFormat format,
               Strictness strictness = Strictness::kStrict) {
  LoadOptions options;
  options.format = format;
  options.strictness = strictness;
  return options;
}

LoadOptions tolerant(TraceFormat format) {
  return as(format, Strictness::kTolerant);
}

TEST_F(TolerantParseTest, StrictThrowsWithPathAndLine) {
  // Line 1 is the header; the bad row lands on line 3.
  const std::string p =
      write_file("t.swf", "; header\n" + swf_row(1) + kBadRow + swf_row(3));
  try {
    load_trace(p, as(TraceFormat::kSwf));
    FAIL() << "expected a parse error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(p + ":3:"), std::string::npos)
        << e.what();
  }
}

TEST_F(TolerantParseTest, TolerantSkipsAndAccounts) {
  const std::string p =
      write_file("t.swf", "; header\n" + swf_row(1) + kBadRow + swf_row(3));
  LoadReport loaded;
  const TraceSet trace =
      load_trace(p, tolerant(TraceFormat::kSwf), &loaded);
  const ParseReport& report = loaded.parse;
  EXPECT_EQ(trace.jobs().size(), 2u);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.lines_bad, 1u);
  EXPECT_EQ(report.records_ok, 2u);
  ASSERT_EQ(report.samples.size(), 1u);
  EXPECT_NE(report.samples[0].find(p + ":3:"), std::string::npos)
      << report.samples[0];
}

TEST_F(TolerantParseTest, GwaTolerantSkipsAndAccounts) {
  const std::string p = write_file(
      "t.gwf",
      "; header\n"
      "1 100 5 60.0 4 -1 1024 4 -1 -1 1\n"
      "garbage line with words\n"
      "3 200 5 60.0 4 -1 1024 4 -1 -1 1\n");
  LoadReport report;
  const TraceSet trace = load_trace(p, tolerant(TraceFormat::kGwa), &report);
  EXPECT_EQ(trace.jobs().size(), 2u);
  EXPECT_EQ(report.parse.lines_bad, 1u);
  EXPECT_EQ(report.parse.records_ok, 2u);
}

TEST_F(TolerantParseTest, GoogleTolerantSkipsAndAccounts) {
  const std::string d = (dir_ / "gtrace").string();
  std::filesystem::create_directories(d);
  {
    std::ofstream out(d + "/task_events.csv");
    out << "1000000,,1,0,5,0,,0,3,,,,\n";
    out << "not_a_time,,1,0,5,0,,0,3,,,,\n";
    out << "2000000,,1,0,5,4,,0,3,,,,\n";
  }
  LoadReport report;
  const TraceSet trace =
      load_trace(d, tolerant(TraceFormat::kGoogleCsv), &report);
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(report.parse.lines_bad, 1u);
  EXPECT_EQ(report.parse.records_ok, 2u);
}

TEST_F(TolerantParseTest, CapAbortsWithDataError) {
  std::string content = "; header\n";
  for (int i = 0; i < 4; ++i) {
    content += kBadRow;
  }
  const std::string p = write_file("t.swf", content);
  LoadOptions options = tolerant(TraceFormat::kSwf);
  options.max_bad_lines = 2;
  LoadReport report;
  EXPECT_THROW(load_trace(p, options, &report), util::DataError);
  EXPECT_GT(report.parse.lines_bad, options.max_bad_lines);
}

TEST_F(TolerantParseTest, SampleRecordingIsCapped) {
  std::string content;
  for (int i = 0; i < 10; ++i) {
    content += kBadRow;
  }
  const std::string p = write_file("t.swf", content);
  LoadOptions options = tolerant(TraceFormat::kSwf);
  options.max_recorded = 3;
  LoadReport report;
  load_trace(p, options, &report);
  EXPECT_EQ(report.parse.lines_bad, 10u);
  EXPECT_EQ(report.parse.samples.size(), 3u);
}

TEST_F(TolerantParseTest, InjectedParseFaultSkipsDeterministically) {
  // Lines 2..5 carry records; every=2 drops the even line numbers.
  const std::string p = write_file("t.swf", "; header\n" + swf_row(1) +
                                                swf_row(2) + swf_row(3) +
                                                swf_row(4));
  fault::configure("trace.parse_line:every=2");
  LoadReport report;
  const TraceSet trace = load_trace(p, tolerant(TraceFormat::kSwf), &report);
  EXPECT_EQ(trace.jobs().size(), 2u);
  EXPECT_EQ(report.parse.lines_bad, 2u);
  for (const std::string& s : report.parse.samples) {
    EXPECT_NE(s.find("injected"), std::string::npos) << s;
  }
  // The same spec in strict mode fails on the first injected line.
  fault::configure("trace.parse_line:every=2");
  try {
    load_trace(p, as(TraceFormat::kSwf));
    FAIL() << "expected a parse error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }
}

TEST_F(TolerantParseTest, IoFaultPropagatesEvenWhenTolerant) {
  const std::string p =
      write_file("t.swf", "; header\n" + swf_row(1) + swf_row(2));
  fault::configure("io.read:once=2");
  LoadReport report;
  // io.read defaults to the transient kind at the call site: not a
  // record-level problem, so tolerant mode must not swallow it.
  EXPECT_THROW(load_trace(p, tolerant(TraceFormat::kSwf), &report),
               util::TransientError);
  EXPECT_EQ(report.parse.lines_bad, 0u);
  // Keys are physical line numbers: the skipped header on line 1 is
  // read too, so a fault keyed to it ends the read before any record.
  fault::configure("io.read:once=1");
  EXPECT_THROW(load_trace(p, tolerant(TraceFormat::kSwf), &report),
               util::TransientError);
  EXPECT_EQ(report.parse.records_ok, 0u);
}

TEST_F(TolerantParseTest, ReportSummaryCountsLines) {
  ParseReport report;
  report.records_ok = 12;
  report.lines_bad = 3;
  EXPECT_EQ(report.summary(), "3 bad lines skipped (12 records parsed)");
}

}  // namespace
}  // namespace cgc::trace
