// Tests for the one way to load a trace (cgc::trace::load_trace):
// format autodetection (directory / extension / magic / field sniff),
// kAuto round-trips through all four on-disk formats, and the mapping
// of LoadOptions::strictness and ::on_damage onto the per-format
// tolerant-parse and degraded-read machinery.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "store/cgcs_format.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/google_format.hpp"
#include "trace/gwa_format.hpp"
#include "trace/loader.hpp"
#include "trace/swf_format.hpp"
#include "trace/trace_set.hpp"
#include "util/check.hpp"

namespace cgc::trace {
namespace {

class LoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_loader_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

/// Job-level trace for the SWF/GWA formats.
TraceSet make_job_trace() {
  TraceSet trace("loader-jobs");
  trace.set_memory_in_mb(true);
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.job_id = i + 1;
    j.user_id = i % 2;
    j.submit_time = 600 * i;
    j.end_time = 600 * i + 1200;
    j.num_tasks = 1;
    j.cpu_parallelism = 2.0f;
    j.mem_usage = 512.0f;
    trace.add_job(j);
  }
  trace.set_duration(86400);
  trace.finalize();
  return trace;
}

/// Event-level trace for the Google CSV directory and CGCS formats.
TraceSet make_event_trace() {
  TraceSet trace("loader-events");
  Machine m;
  m.machine_id = 3;
  m.cpu_capacity = 0.5f;
  m.mem_capacity = 0.25f;
  trace.add_machine(m);
  trace.add_event({.time = 10, .job_id = 1, .machine_id = -1, .task_index = 0,
                   .type = TaskEventType::kSubmit, .priority = 2});
  trace.add_event({.time = 12, .job_id = 1, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kSchedule, .priority = 2});
  trace.add_event({.time = 500, .job_id = 1, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kFinish, .priority = 2});
  trace.add_event({.time = 20, .job_id = 2, .machine_id = -1, .task_index = 0,
                   .type = TaskEventType::kSubmit, .priority = 9});
  trace.add_event({.time = 25, .job_id = 2, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kSchedule, .priority = 9});
  trace.add_event({.time = 900, .job_id = 2, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kFinish, .priority = 9});
  trace.finalize();
  return trace;
}

void append_line(const std::string& p, const std::string& line) {
  std::ofstream out(p, std::ios::app);
  out << line;
}

TEST_F(LoaderTest, DetectByDirectoryAndExtension) {
  const std::string google_dir = path("google_trace");
  write_google_trace(make_event_trace(), google_dir);
  EXPECT_EQ(detect_format(google_dir), TraceFormat::kGoogleCsv);

  write_swf(make_job_trace(), path("jobs.swf"));
  EXPECT_EQ(detect_format(path("jobs.swf")), TraceFormat::kSwf);
  write_gwa(make_job_trace(), path("jobs.gwa"));
  EXPECT_EQ(detect_format(path("jobs.gwa")), TraceFormat::kGwa);
  write_gwa(make_job_trace(), path("jobs.gwf"));
  EXPECT_EQ(detect_format(path("jobs.gwf")), TraceFormat::kGwa);
  store::write_cgcs(make_event_trace(), path("events.cgcs"));
  EXPECT_EQ(detect_format(path("events.cgcs")), TraceFormat::kCgcs);

  // Extension match is case-insensitive.
  write_swf(make_job_trace(), path("JOBS.SWF"));
  EXPECT_EQ(detect_format(path("JOBS.SWF")), TraceFormat::kSwf);
}

TEST_F(LoaderTest, DetectByMagicWhenExtensionIsUnknown) {
  store::write_cgcs(make_event_trace(), path("blob.bin"));
  EXPECT_EQ(detect_format(path("blob.bin")), TraceFormat::kCgcs);
}

TEST_F(LoaderTest, DetectBySniffedFieldCount) {
  // 18 whitespace-separated fields after comments -> SWF.
  {
    std::ofstream out(path("swf_data.txt"));
    out << "; SWF fixture\n";
    out << "1 0 30 3600 4 -1 102400 4 7200 -1 1 12 -1 -1 1 -1 -1 -1\n";
  }
  EXPECT_EQ(detect_format(path("swf_data.txt")), TraceFormat::kSwf);

  // 11 fields -> GWA.
  {
    std::ofstream out(path("gwa_data.txt"));
    out << "# GWA fixture\n";
    out << "7 0 10 100 1 -1 -1 1 -1 -1 1\n";
  }
  EXPECT_EQ(detect_format(path("gwa_data.txt")), TraceFormat::kGwa);

  {
    std::ofstream out(path("junk.txt"));
    out << "this is not a trace\n";
  }
  EXPECT_THROW(detect_format(path("junk.txt")), util::DataError);
  EXPECT_THROW(detect_format(path("does_not_exist")), util::DataError);
}

TEST_F(LoaderTest, AutoRoundTripAllFourFormats) {
  const TraceSet jobs = make_job_trace();
  const TraceSet events = make_event_trace();

  const std::string google_dir = path("rt_google");
  write_google_trace(events, google_dir);
  write_swf(jobs, path("rt.swf"));
  write_gwa(jobs, path("rt.gwa"));
  store::write_cgcs(events, path("rt.cgcs"));

  const std::pair<std::string, TraceFormat> cases[] = {
      {google_dir, TraceFormat::kGoogleCsv},
      {path("rt.swf"), TraceFormat::kSwf},
      {path("rt.gwa"), TraceFormat::kGwa},
      {path("rt.cgcs"), TraceFormat::kCgcs},
  };
  for (const auto& [target, expected_format] : cases) {
    LoadReport report;
    const TraceSet loaded = load_trace(target, {}, &report);
    EXPECT_EQ(report.format, expected_format) << target;
    EXPECT_TRUE(report.clean()) << report.summary();
    if (expected_format == TraceFormat::kSwf ||
        expected_format == TraceFormat::kGwa) {
      EXPECT_EQ(loaded.jobs().size(), jobs.jobs().size()) << target;
    } else {
      EXPECT_EQ(loaded.events().size(), events.events().size()) << target;
    }
  }
}

TEST_F(LoaderTest, SystemNameDefaultsAndOverride) {
  write_swf(make_job_trace(), path("name.swf"));
  EXPECT_EQ(load_trace(path("name.swf")).system_name(), "swf-trace");
  LoadOptions options;
  options.system_name = "custom-name";
  EXPECT_EQ(load_trace(path("name.swf"), options).system_name(),
            "custom-name");
}

TEST_F(LoaderTest, StrictnessMapsToTolerantParsing) {
  write_swf(make_job_trace(), path("dirty.swf"));
  append_line(path("dirty.swf"), "garbage line that is not swf\n");

  EXPECT_THROW(load_trace(path("dirty.swf")), util::Error);

  LoadOptions tolerant;
  tolerant.strictness = Strictness::kTolerant;
  LoadReport report;
  const TraceSet loaded = load_trace(path("dirty.swf"), tolerant, &report);
  EXPECT_EQ(loaded.jobs().size(), make_job_trace().jobs().size());
  EXPECT_GE(report.parse.lines_bad, 1u);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.summary().find("bad"), std::string::npos);
}

TEST_F(LoaderTest, OnDamageMapsToDegradedReads) {
  const std::string victim = path("victim.cgcs");
  store::WriteOptions write_options;
  write_options.chunks.rows_per_chunk = 256;
  store::write_cgcs(make_event_trace(), victim, write_options);

  // Flip one byte inside the first events payload chunk.
  const store::StoreReader reader(victim);
  std::uint64_t offset = 0;
  for (const store::ChunkMeta& c : reader.chunks()) {
    if (c.section == store::SectionId::kEvents && c.payload_size > 0) {
      offset = c.offset;
      break;
    }
  }
  ASSERT_GT(offset, 0u);
  {
    std::fstream file(victim, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x01;
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
  }

  EXPECT_THROW(load_trace(victim), util::DataError);

  LoadOptions degraded;
  degraded.on_damage = OnDamage::kQuarantine;
  LoadReport report;
  const TraceSet loaded = load_trace(victim, degraded, &report);
  EXPECT_FALSE(report.damage.clean());
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.format, TraceFormat::kCgcs);
  (void)loaded;
}

TEST_F(LoaderTest, ExplicitFormatSkipsDetection) {
  // A .txt SWF file loads when the format is forced, bypassing sniffing.
  write_swf(make_job_trace(), path("forced.txt"));
  LoadOptions options;
  options.format = TraceFormat::kSwf;
  const TraceSet loaded = load_trace(path("forced.txt"), options);
  EXPECT_EQ(loaded.jobs().size(), make_job_trace().jobs().size());
}

}  // namespace
}  // namespace cgc::trace
