// Tests for the sweep driver's report.json checkpoint I/O: perf-block
// round-trip, strings and file names the old line scanner mangled, and
// the kOk/kMissing/kCorrupt distinction that lets --resume fail loudly
// on a torn report (regression: a truncated file used to be treated
// the same as a missing one).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "sweep/report_io.hpp"

namespace cgc::sweep {
namespace {

class ReportIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_report_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "report.json").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static SweepReport make_report() {
    SweepReport report;
    report.fast_mode = true;
    report.threads = 4;
    report.complete = true;
    report.total_seconds = 1.5;
    CaseRecord r;
    r.id = "fig02_priorities";
    r.kind = "figure";
    r.title = "Priority mix";
    r.seconds = 0.75;
    r.ok = true;
    r.attempts = 2;
    r.perf.wall_s = 0.75;
    r.perf.cpu_s = 2.5;
    r.perf.max_rss_kb = 123456;
    r.outputs.push_back({"fig02.dat", 0xdeadbeef, 321});
    report.cases.push_back(r);
    return report;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(ReportIoTest, RoundTripIncludesPerfBlock) {
  write_report(make_report(), path_);

  SweepReport loaded;
  ASSERT_EQ(read_report_checked(path_, &loaded), util::ReadStatus::kOk);
  ASSERT_EQ(loaded.cases.size(), 1u);
  const CaseRecord& r = loaded.cases[0];
  EXPECT_EQ(r.id, "fig02_priorities");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_DOUBLE_EQ(r.perf.wall_s, 0.75);
  EXPECT_DOUBLE_EQ(r.perf.cpu_s, 2.5);
  EXPECT_EQ(r.perf.max_rss_kb, 123456u);
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0].file, "fig02.dat");
  EXPECT_EQ(r.outputs[0].crc, 0xdeadbeefu);
  EXPECT_EQ(r.outputs[0].size, 321u);
}

TEST_F(ReportIoTest, AwkwardStringsRoundTripExactly) {
  SweepReport report = make_report();
  CaseRecord& r = report.cases[0];
  r.ok = false;
  r.error = "cannot open C:\\data\\";  // ends in a backslash
  r.title = "quote \" tab \t newline \n bell \x07 brace }";
  r.outputs.push_back({"odd}name{.dat", 0x01020304, 99});
  write_report(report, path_);

  SweepReport loaded;
  ASSERT_EQ(read_report_checked(path_, &loaded), util::ReadStatus::kOk);
  ASSERT_EQ(loaded.cases.size(), 1u);
  EXPECT_EQ(loaded.cases[0].error, r.error);
  EXPECT_EQ(loaded.cases[0].title, r.title);
  ASSERT_EQ(loaded.cases[0].outputs.size(), 2u);
  EXPECT_EQ(loaded.cases[0].outputs[1].file, "odd}name{.dat");
  EXPECT_EQ(loaded.cases[0].outputs[1].crc, 0x01020304u);
  EXPECT_EQ(loaded.cases[0].outputs[1].size, 99u);
}

TEST_F(ReportIoTest, MalformedUnicodeEscapeIsCorruptNotAThrow) {
  write_report(make_report(), path_);
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string::size_type pos = bytes.find("Priority mix");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 8, "\\uzz12x");
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  SweepReport out;
  util::ReadStatus status = util::ReadStatus::kOk;
  EXPECT_NO_THROW(status = read_report_checked(path_, &out));
  EXPECT_EQ(status, util::ReadStatus::kCorrupt);
}

TEST_F(ReportIoTest, ShardStampRoundTripsAndDefaultsWhenAbsent) {
  SweepReport report = make_report();
  report.shard_index = 2;
  report.shard_total = 4;
  report.merged = true;
  write_report(report, path_);
  SweepReport loaded;
  ASSERT_EQ(read_report_checked(path_, &loaded), util::ReadStatus::kOk);
  EXPECT_EQ(loaded.shard_index, 2);
  EXPECT_EQ(loaded.shard_total, 4);
  EXPECT_TRUE(loaded.merged);

  // An unstamped (pre-sharding / single-process) report parses with the
  // single-shard defaults.
  write_report(make_report(), path_);
  SweepReport plain;
  ASSERT_EQ(read_report_checked(path_, &plain), util::ReadStatus::kOk);
  EXPECT_EQ(plain.shard_index, 0);
  EXPECT_EQ(plain.shard_total, 1);
  EXPECT_FALSE(plain.merged);
}

TEST_F(ReportIoTest, CaseLineWithRetiredBinaryKeyParses) {
  // Checkpoints from before the per-case "binary" key was dropped must
  // still load, so --resume carries them over.
  {
    std::ofstream out(path_);
    out << R"({
  "fast_mode": true,
  "threads": 4,
  "fault_spec": "",
  "complete": true,
  "total_seconds": 1.5,
  "chunks_quarantined": 0,
  "rows_lost": 0,
  "values_defaulted": 0,
  "parse_lines_bad": 0,
  "cases": [
    {"id": "fig02", "binary": "bench_fig02_priorities", "kind": "figure", "title": "Priority mix", "seconds": 0.75, "ok": true, "resumed": false, "attempts": 1, "perf": {"wall_s": 0.75, "cpu_s": 2.5, "max_rss_kb": 123456}, "outputs": [{"file": "fig02.dat", "crc": 3735928559, "size": 321}]}
  ]
}
)";
  }
  SweepReport loaded;
  ASSERT_EQ(read_report_checked(path_, &loaded), util::ReadStatus::kOk);
  ASSERT_EQ(loaded.cases.size(), 1u);
  const CaseRecord& r = loaded.cases[0];
  EXPECT_EQ(r.id, "fig02");
  EXPECT_EQ(r.kind, "figure");
  EXPECT_EQ(r.title, "Priority mix");
  EXPECT_TRUE(r.ok);
  ASSERT_EQ(r.outputs.size(), 1u);
  EXPECT_EQ(r.outputs[0].crc, 0xdeadbeefu);
  EXPECT_EQ(r.outputs[0].size, 321u);
}

TEST_F(ReportIoTest, MissingFileIsMissingNotCorrupt) {
  SweepReport out;
  EXPECT_EQ(read_report_checked(path_, &out), util::ReadStatus::kMissing);
}

TEST_F(ReportIoTest, TruncatedReportIsCorrupt) {
  write_report(make_report(), path_);
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 20u);
  // Simulate a crash mid-write: keep only the first half of the file.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  SweepReport out;
  EXPECT_EQ(read_report_checked(path_, &out), util::ReadStatus::kCorrupt);
}

TEST_F(ReportIoTest, ForeignFileIsCorrupt) {
  {
    std::ofstream out(path_);
    out << "{\"something\": \"else entirely\"}\n";
  }
  SweepReport out;
  EXPECT_EQ(read_report_checked(path_, &out), util::ReadStatus::kCorrupt);
}

TEST_F(ReportIoTest, MangledCaseLineIsCorrupt) {
  write_report(make_report(), path_);
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Damage the case line's id key so parse_case fails, keeping the
  // header and trailer intact.
  const std::string::size_type pos = bytes.find("\"id\"");
  ASSERT_NE(pos, std::string::npos);
  bytes.replace(pos, 4, "\"xx\"");
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  SweepReport out;
  EXPECT_EQ(read_report_checked(path_, &out), util::ReadStatus::kCorrupt);
}

}  // namespace
}  // namespace cgc::sweep
