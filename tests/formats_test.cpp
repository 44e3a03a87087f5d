// Round-trip and schema tests for the Google clusterdata, SWF, and GWA
// trace formats, read back through load_trace with the format named.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <tuple>
#include <utility>

#include "gen/google_model.hpp"
#include "sim/cluster_sim.hpp"
#include "store/writer.hpp"
#include "trace/google_format.hpp"
#include "trace/gwa_format.hpp"
#include "trace/lifecycle.hpp"
#include "trace/loader.hpp"
#include "trace/swf_format.hpp"
#include "trace/validate.hpp"
#include "util/check.hpp"

namespace cgc::trace {
namespace {

class FormatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cgc_fmt_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }
  std::filesystem::path dir_;
};

/// Strict load of `path` as `format`, stamped `name`.
TraceSet load(const std::string& path, TraceFormat format,
              const std::string& name) {
  LoadOptions options;
  options.format = format;
  options.system_name = name;
  return load_trace(path, options);
}

/// The job with id `job_id`; fails the test when there is none.
const Job& job(const TraceSet& trace, std::int64_t job_id) {
  for (const Job& j : trace.jobs()) {
    if (j.job_id == job_id) {
      return j;
    }
  }
  ADD_FAILURE() << "no job " << job_id;
  return trace.jobs().front();
}

TraceSet make_event_trace() {
  TraceSet trace("roundtrip");
  Machine m;
  m.machine_id = 3;
  m.cpu_capacity = 0.5f;
  m.mem_capacity = 0.25f;
  m.attributes = kAttrLocalSsd | kAttrExternalIp;
  trace.add_machine(m);

  // Task 1/0: submit -> schedule -> finish.
  trace.add_event({.time = 10, .job_id = 1, .machine_id = -1, .task_index = 0,
                   .type = TaskEventType::kSubmit, .priority = 2});
  trace.add_event({.time = 12, .job_id = 1, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kSchedule, .priority = 2});
  trace.add_event({.time = 500, .job_id = 1, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kFinish, .priority = 2});
  // Task 2/0: submit -> schedule -> fail -> resubmit -> schedule -> finish.
  trace.add_event({.time = 20, .job_id = 2, .machine_id = -1, .task_index = 0,
                   .type = TaskEventType::kSubmit, .priority = 11});
  trace.add_event({.time = 25, .job_id = 2, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kSchedule, .priority = 11});
  trace.add_event({.time = 100, .job_id = 2, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kFail, .priority = 11});
  trace.add_event({.time = 160, .job_id = 2, .machine_id = -1, .task_index = 0,
                   .type = TaskEventType::kSubmit, .priority = 11});
  trace.add_event({.time = 170, .job_id = 2, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kSchedule, .priority = 11});
  trace.add_event({.time = 900, .job_id = 2, .machine_id = 3, .task_index = 0,
                   .type = TaskEventType::kFinish, .priority = 11});

  HostLoadSeries h(3, 0, util::kSamplePeriod);
  const float cpu[kNumBands] = {0.12f, 0.0f, 0.08f};
  const float mem[kNumBands] = {0.05f, 0.01f, 0.02f};
  h.append(cpu, mem, 0.2f, 0.15f, 2, 0);
  h.append(cpu, mem, 0.22f, 0.18f, 2, 1);
  trace.add_host_load(std::move(h));
  trace.finalize();
  return trace;
}

TEST_F(FormatsTest, GoogleTraceRoundTrip) {
  const TraceSet original = make_event_trace();
  const std::string dir = path("google_trace");
  write_google_trace(original, dir);

  const TraceSet loaded = load(dir, TraceFormat::kGoogleCsv, "loaded");
  EXPECT_EQ(loaded.system_name(), "loaded");
  EXPECT_EQ(loaded.events().size(), original.events().size());
  EXPECT_EQ(loaded.machines().size(), 1u);
  EXPECT_FLOAT_EQ(loaded.machine_by_id(3)->cpu_capacity, 0.5f);
  // Attribute bits ride through the platform_id column.
  EXPECT_EQ(loaded.machine_by_id(3)->attributes,
            kAttrLocalSsd | kAttrExternalIp);
  EXPECT_TRUE(loaded.machine_by_id(3)->satisfies(kAttrLocalSsd));
  EXPECT_FALSE(loaded.machine_by_id(3)->satisfies(kAttrNewKernel));

  // Tasks reconstructed from the event stream.
  ASSERT_EQ(loaded.tasks().size(), 2u);
  const auto t1 = loaded.tasks_for_job(1);
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1[0].submit_time, 10);
  EXPECT_EQ(t1[0].schedule_time, 12);
  EXPECT_EQ(t1[0].end_time, 500);
  EXPECT_EQ(t1[0].end_event, TaskEventType::kFinish);
  EXPECT_EQ(t1[0].priority, 2);
  EXPECT_EQ(t1[0].resubmits, 0);
  const auto t2 = loaded.tasks_for_job(2);
  ASSERT_EQ(t2.size(), 1u);
  EXPECT_EQ(t2[0].resubmits, 1);
  EXPECT_EQ(t2[0].end_time, 900);

  // Jobs aggregated from tasks.
  ASSERT_EQ(loaded.jobs().size(), 2u);
  EXPECT_EQ(job(loaded, 1).priority, 2);
  EXPECT_EQ(job(loaded, 2).priority, 11);

  // Host load restored.
  ASSERT_NE(loaded.host_load_for(3), nullptr);
  EXPECT_EQ(loaded.host_load_for(3)->size(), 2u);
  EXPECT_NEAR(loaded.host_load_for(3)->cpu(PriorityBand::kHigh, 0), 0.08f,
              1e-6);
  EXPECT_EQ(loaded.host_load_for(3)->running(0), 2);
}

TEST_F(FormatsTest, GoogleEventPrioritiesAreZeroBasedOnDisk) {
  const TraceSet original = make_event_trace();
  const std::string dir = path("pri_check");
  write_google_trace(original, dir);
  std::ifstream in(dir + "/task_events.csv");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  // First event is priority 2 in memory -> "1" in the 9th column.
  std::vector<std::string> fields;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) {
    fields.push_back(field);
  }
  ASSERT_GE(fields.size(), 9u);
  EXPECT_EQ(fields[8], "1");
}

TEST_F(FormatsTest, GoogleMissingDirectoryThrows) {
  EXPECT_THROW(load(path("nope"), TraceFormat::kGoogleCsv, "nope"),
               util::Error);
}

TEST_F(FormatsTest, SwfRoundTrip) {
  TraceSet original("swf-system");
  original.set_memory_in_mb(true);
  Job j;
  j.job_id = 17;
  j.user_id = 4;
  j.submit_time = 3600;
  j.end_time = 3600 + 7200;
  j.num_tasks = 1;
  j.cpu_parallelism = 8.0f;
  j.mem_usage = 2048.0f;  // MB across the job
  original.add_job(j);
  original.set_duration(86400);
  original.finalize();

  const std::string p = path("trace.swf");
  write_swf(original, p);
  const TraceSet loaded = load(p, TraceFormat::kSwf, "swf-system");
  ASSERT_EQ(loaded.jobs().size(), 1u);
  const Job& lj = loaded.jobs()[0];
  EXPECT_EQ(lj.job_id, 17);
  EXPECT_EQ(lj.submit_time, 3600);
  EXPECT_EQ(lj.length(), 7200);
  EXPECT_FLOAT_EQ(lj.cpu_parallelism, 8.0f);
  EXPECT_NEAR(lj.mem_usage, 2048.0f, 8.0f);
  EXPECT_TRUE(loaded.memory_in_mb());
  ASSERT_EQ(loaded.tasks().size(), 1u);
  EXPECT_EQ(loaded.tasks()[0].end_event, TaskEventType::kFinish);
}

TEST_F(FormatsTest, SwfParsesStandardFixture) {
  const std::string p = path("fixture.swf");
  {
    std::ofstream out(p);
    out << "; Version: 2\n";
    out << "; UnixStartTime: 0\n";
    // job submit wait run procs avgcpu mem reqprocs reqtime reqmem status
    // uid gid exe queue partition preceding think
    out << "1 0 30 3600 4 -1 102400 4 7200 -1 1 12 -1 -1 1 -1 -1 -1\n";
    out << "2 100 -1 -1 1 -1 -1 1 600 -1 0 13 -1 -1 1 -1 -1 -1\n";
  }
  const TraceSet loaded = load(p, TraceFormat::kSwf, "fixture");
  ASSERT_EQ(loaded.jobs().size(), 2u);
  EXPECT_EQ(loaded.jobs()[0].length(), 3630);  // wait + run
  // used_memory is KB/proc: 102400 KB * 4 procs = 400 MB.
  EXPECT_NEAR(loaded.jobs()[0].mem_usage, 400.0f, 0.5f);
  EXPECT_FALSE(loaded.jobs()[1].completed());  // run_time = -1
}

TEST_F(FormatsTest, SwfTooFewFieldsThrows) {
  const std::string p = path("bad.swf");
  {
    std::ofstream out(p);
    out << "1 0 30 3600\n";
  }
  EXPECT_THROW(load(p, TraceFormat::kSwf, "bad"), util::Error);
}

TEST_F(FormatsTest, GwaRoundTrip) {
  TraceSet original("gwa-system");
  original.set_memory_in_mb(true);
  Job j;
  j.job_id = 5;
  j.submit_time = 500;
  j.end_time = 500 + 1800;
  j.cpu_parallelism = 2.0f;
  j.mem_usage = 768.0f;
  original.add_job(j);
  original.set_duration(10000);
  original.finalize();

  const std::string p = path("trace.gwf");
  write_gwa(original, p);
  const TraceSet loaded = load(p, TraceFormat::kGwa, "gwa-system");
  ASSERT_EQ(loaded.jobs().size(), 1u);
  EXPECT_EQ(loaded.jobs()[0].job_id, 5);
  EXPECT_EQ(loaded.jobs()[0].length(), 1800);
  EXPECT_FLOAT_EQ(loaded.jobs()[0].cpu_parallelism, 2.0f);
  EXPECT_NEAR(loaded.jobs()[0].mem_usage, 768.0f, 1.0f);
}

TEST_F(FormatsTest, GwaSkipsHeaderComments) {
  const std::string p = path("hdr.gwf");
  {
    std::ofstream out(p);
    out << "; GWA header\n";
    out << "7 0 10 100 1 -1 -1 1 -1 -1 1\n";
  }
  const TraceSet loaded = load(p, TraceFormat::kGwa, "hdr");
  ASSERT_EQ(loaded.jobs().size(), 1u);
  EXPECT_EQ(loaded.jobs()[0].length(), 110);
}

TEST_F(FormatsTest, GoogleTruncatedFinalRecordReportsLine) {
  const TraceSet original = make_event_trace();
  const std::string dir = path("trunc_trace");
  write_google_trace(original, dir);
  // Simulate a copy cut off mid-write: append a final record that stops
  // partway through its fields.
  {
    std::ofstream out(dir + "/task_events.csv", std::ios::app);
    out << "999000000,,42,0";  // 4 of the >= 9 required fields
  }
  try {
    load(dir, TraceFormat::kGoogleCsv, "trunc");
    FAIL() << "expected Error for truncated record";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task_events.csv:"), std::string::npos) << what;
    EXPECT_NE(what.find("too short"), std::string::npos) << what;
  }
}

TEST_F(FormatsTest, GoogleGarbledFieldReportsPathAndLine) {
  const TraceSet original = make_event_trace();
  const std::string dir = path("garbled_trace");
  write_google_trace(original, dir);
  {
    std::ofstream out(dir + "/task_events.csv", std::ios::app);
    out << "not_a_number,,1,0,,0,,0,1\n";
  }
  try {
    load(dir, TraceFormat::kGoogleCsv, "garbled");
    FAIL() << "expected Error for garbled field";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task_events.csv:"), std::string::npos) << what;
    EXPECT_NE(what.find("bad integer"), std::string::npos) << what;
  }
}

TEST_F(FormatsTest, GoogleCrLfTraceParses) {
  const TraceSet original = make_event_trace();
  const std::string dir = path("crlf_trace");
  write_google_trace(original, dir);
  // Rewrite every file with CRLF line endings (as from a Windows unzip).
  for (const char* name :
       {"task_events.csv", "machine_events.csv", "host_usage.csv"}) {
    const std::string p = dir + "/" + name;
    std::string contents;
    {
      std::ifstream in(p, std::ios::binary);
      std::string line;
      while (std::getline(in, line)) {
        contents += line + "\r\n";
      }
    }
    std::ofstream(p, std::ios::binary) << contents;
  }
  const TraceSet loaded = load(dir, TraceFormat::kGoogleCsv, "crlf");
  EXPECT_EQ(loaded.events().size(), original.events().size());
  EXPECT_EQ(loaded.machines().size(), original.machines().size());
  ASSERT_NE(loaded.host_load_for(3), nullptr);
  EXPECT_EQ(loaded.host_load_for(3)->size(), 2u);
}

TEST_F(FormatsTest, SwfTruncatedFinalRecordReportsLine) {
  const std::string p = path("trunc.swf");
  {
    std::ofstream out(p, std::ios::binary);
    out << "; header\n";
    out << "1 0 30 3600 4 -1 102400 4 7200 -1 1 12 -1 -1 1 -1 -1 -1\n";
    out << "2 100 -1 -1 1 -1";  // cut off mid-record
  }
  try {
    load(p, TraceFormat::kSwf, "trunc");
    FAIL() << "expected Error for truncated record";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":3:"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
}

TEST_F(FormatsTest, GwaTruncatedFinalRecordReportsLine) {
  const std::string p = path("trunc.gwf");
  {
    std::ofstream out(p, std::ios::binary);
    out << "7 0 10 100 1 -1 -1 1 -1 -1 1\n";
    out << "8 5 10 100";  // cut off mid-record
  }
  try {
    load(p, TraceFormat::kGwa, "trunc");
    FAIL() << "expected Error for truncated record";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(":2:"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  }
}

/// Strict-loads `path` as `format` and expects a DataError whose
/// message is "<path>:<line>: <reason>", with no source internals.
void expect_row_error(const std::string& path, TraceFormat format,
                      const std::string& where, const std::string& reason) {
  try {
    load(path, format, "bad");
    ADD_FAILURE() << "expected a DataError for " << where;
  } catch (const util::DataError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(where + ": " + reason), std::string::npos) << what;
    EXPECT_EQ(what.find("CGC_CHECK failed"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp:"), std::string::npos) << what;
  }
}

TEST_F(FormatsTest, StrictRowErrorsNameOnlyPathLineAndReason) {
  const std::string gwf = path("bad.gwf");
  std::ofstream(gwf) << "7 0 10 100 1 -1 -1 1 -1 -1 1\n"
                     << "8 5 10 x 1 -1 -1 1 -1 -1 1\n";
  expect_row_error(gwf, TraceFormat::kGwa, gwf + ":2",
                   "bad double field: 'x'");

  const std::string swf = path("bad.swf");
  std::ofstream(swf) << "; header\n"
                     << "1 0 30 3600 4 -1 1024 4 -1 -1 1 zz -1 -1 1 -1 -1 -1\n";
  expect_row_error(swf, TraceFormat::kSwf, swf + ":2",
                   "bad integer field: 'zz'");

  const std::string dir = path("bad_google");
  std::filesystem::create_directories(dir);
  const std::string events = dir + "/task_events.csv";
  const std::pair<const char*, const char*> rows[] = {
      {"1000000,,1,0,,x,,0,1\n", "bad integer field: 'x'"},
      {"1000000,,1,0,,9,,0,1\n", "unknown task event code 9"},
      {"1000000,,1,0,,0,,0,12\n", "priority out of range"},
      {"1000000,,1,0\n", "task_events row too short (truncated record?)"}};
  for (const auto& [row, reason] : rows) {
    std::ofstream(events) << "0,,1,0,,0,,0,1\n" << row;
    expect_row_error(dir, TraceFormat::kGoogleCsv, events + ":2", reason);
  }
}

/// Loading `path` as `format` throws `Expected` naming `path`, with no
/// assertion text or source location.
template <typename Expected>
void expect_load_error(const std::string& path, TraceFormat format) {
  try {
    load(path, format, "x");
    ADD_FAILURE() << path << ": loaded";
  } catch (const Expected& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path), std::string::npos) << message;
    EXPECT_EQ(message.find("CGC_CHECK failed"), std::string::npos) << message;
    EXPECT_EQ(message.find(".cpp:"), std::string::npos) << message;
  } catch (const std::exception& e) {
    ADD_FAILURE() << path << ": wrong error class: " << e.what();
  }
}

TEST_F(FormatsTest, UnreadableInputsNameThePath) {
  // A directory without task_events.csv, and a file that is not there:
  // bad input, so a DataError.
  const std::string empty = path("empty_dir");
  std::filesystem::create_directories(empty);
  expect_load_error<util::DataError>(empty, TraceFormat::kAuto);
  expect_load_error<util::DataError>(path("absent.swf"), TraceFormat::kSwf);
  // A directory read as a file opens, then fails the first read with
  // EISDIR: a stream error, which is an I/O-class TransientError.
  expect_load_error<util::TransientError>(empty, TraceFormat::kSwf);
}

TEST_F(FormatsTest, WritersReportAFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC: each
  // writer must throw instead of leaving a truncated file behind.
  const std::string full = "/dev/full";
  if (!std::filesystem::exists(full)) {
    GTEST_SKIP() << full << " is absent";
  }
  const TraceSet trace = make_event_trace();
  TraceSet jobs("jobs");
  Job j;
  j.job_id = 1;
  j.end_time = 60;
  jobs.add_job(j);
  jobs.finalize();
  EXPECT_THROW(write_task_events(trace, full), util::TransientError);
  EXPECT_THROW(write_machine_events(trace, full), util::TransientError);
  EXPECT_THROW(write_host_usage(trace, full), util::TransientError);
  EXPECT_THROW(write_swf(jobs, full), util::TransientError);
  EXPECT_THROW(write_gwa(jobs, full), util::TransientError);
  EXPECT_THROW(store::write_cgcs(trace, full), util::TransientError);
}

TEST_F(FormatsTest, ReplayLeavesUnfinishedTasksOpen) {
  const std::vector<TaskEvent> events = {
      {.time = 10, .job_id = 1, .machine_id = -1, .task_index = 0,
       .type = TaskEventType::kSubmit, .priority = 1},
      {.time = 15, .job_id = 1, .machine_id = 2, .task_index = 0,
       .type = TaskEventType::kSchedule, .priority = 1}};
  // No terminal event: still running at trace end.
  const std::vector<Task> tasks = replay_tasks(events);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].end_time, -1);
  const std::vector<Job> jobs = roll_up_jobs(tasks);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_FALSE(jobs[0].completed());
}

TEST_F(FormatsTest, ReplayFollowsTheSimulatorsRecordRules) {
  const auto ev = [](TimeSec time, TaskEventType type, std::int64_t machine) {
    return TaskEvent{.time = time, .job_id = 7, .machine_id = machine,
                     .task_index = 0, .type = type, .priority = 3};
  };
  // Evicted, rescheduled elsewhere, failed, resubmitted and still
  // pending at trace end.
  const std::vector<TaskEvent> events = {
      ev(-50, TaskEventType::kSubmit, -1), ev(-40, TaskEventType::kSchedule, 1),
      ev(10, TaskEventType::kEvict, 1),    ev(20, TaskEventType::kSubmit, -1),
      ev(30, TaskEventType::kSchedule, 2), ev(90, TaskEventType::kFail, 2),
      ev(95, TaskEventType::kSubmit, -1)};
  const std::vector<Task> tasks = replay_tasks(events);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].submit_time, -50);
  EXPECT_EQ(tasks[0].schedule_time, -40);  // the first SCHEDULE, before t=0
  EXPECT_EQ(tasks[0].machine_id, 2);       // the last SCHEDULE's machine
  EXPECT_EQ(tasks[0].end_time, -1);        // the resubmission cleared it
  EXPECT_EQ(tasks[0].end_event, TaskEventType::kFail);
  EXPECT_EQ(tasks[0].resubmits, 2);
}

TEST_F(FormatsTest, ReplaySkipsAndReportsRefusedEvents) {
  const std::vector<TaskEvent> events = {
      // 1/0: FINISH before any SUBMIT, then a normal life.
      {.time = 1, .job_id = 1, .task_index = 0, .type = TaskEventType::kFinish},
      {.time = 2, .job_id = 1, .task_index = 0, .type = TaskEventType::kSubmit},
      {.time = 3, .job_id = 1, .machine_id = 4, .task_index = 0,
       .type = TaskEventType::kSchedule},
      {.time = 9, .job_id = 1, .machine_id = 4, .task_index = 0,
       .type = TaskEventType::kFinish},
      // 1/1: killed while pending; a later EVICT is refused.
      {.time = 4, .job_id = 1, .task_index = 1, .type = TaskEventType::kSubmit},
      {.time = 5, .job_id = 1, .task_index = 1, .type = TaskEventType::kKill},
      {.time = 6, .job_id = 1, .task_index = 1, .type = TaskEventType::kEvict},
      // 2/0: only a refused SCHEDULE, so no record.
      {.time = 7, .job_id = 2, .task_index = 0,
       .type = TaskEventType::kSchedule}};
  std::vector<RefusedEvent> refused;
  const std::vector<Task> tasks = replay_tasks(events, &refused);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].submit_time, 2);
  EXPECT_EQ(tasks[0].end_time, 9);
  EXPECT_EQ(tasks[1].schedule_time, -1);
  EXPECT_EQ(tasks[1].end_time, 5);
  EXPECT_EQ(tasks[1].end_event, TaskEventType::kKill);
  ASSERT_EQ(refused.size(), 3u);
  EXPECT_EQ(refused[0].state, TaskState::kUnsubmitted);
  EXPECT_EQ(refused[1].event.type, TaskEventType::kEvict);
  EXPECT_EQ(refused[1].state, TaskState::kDead);
  EXPECT_EQ(refused[2].event.job_id, 2);
}

TEST_F(FormatsTest, RollUpAppliesFormulaFourInAnyInputOrder) {
  // Job 5: two tasks running 100 s each over a 100 s job -> 2.0.
  Task a;
  a.job_id = 5;
  a.task_index = 1;
  a.priority = 4;
  a.submit_time = 10;
  a.schedule_time = 10;
  a.end_time = 110;
  Task b = a;
  b.task_index = 0;
  b.priority = 9;
  Task c;  // job 3, unfinished
  c.job_id = 3;
  c.submit_time = 50;
  const std::vector<Task> tasks = {a, c, b};
  const std::vector<Job> jobs = roll_up_jobs(tasks);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].job_id, 3);
  EXPECT_FALSE(jobs[0].completed());
  EXPECT_EQ(jobs[0].cpu_parallelism, 1.0f);
  EXPECT_EQ(jobs[1].job_id, 5);
  EXPECT_EQ(jobs[1].num_tasks, 2);
  EXPECT_EQ(jobs[1].priority, 9);  // task 0's
  EXPECT_EQ(jobs[1].length(), 100);
  EXPECT_EQ(jobs[1].cpu_parallelism, 2.0f);
}

/// The trace `trace_convert generate google <dir> 1` writes: a 1-day,
/// 16-machine Google simulation, with `warmup_days` of submissions
/// before t=0.
TraceSet simulate_google_day(double warmup_days) {
  gen::GoogleModelConfig config;
  config.warmup_days = warmup_days;
  const gen::GoogleWorkloadModel model(config);
  sim::SimConfig sim_config;
  sim_config.horizon = util::kSecondsPerDay;
  sim::ClusterSim sim(model.make_machines(16), sim_config);
  return sim.run(model.generate_sim_workload(sim_config.horizon, 16),
                 "google");
}

/// The task fields task_events carry.
auto event_fields(const Task& t) {
  return std::tuple(t.job_id, t.task_index, t.submit_time, t.schedule_time,
                    t.end_time, t.end_event, t.machine_id, t.priority,
                    t.resubmits);
}

/// True when `written` and `read` differ only because the task's last
/// resubmission falls past the horizon: the simulator counted it (and,
/// after a FAIL, cleared end_time), but no SUBMIT event records it.
bool resubmit_past_horizon(const Task& written, const Task& read) {
  Task expected = read;
  ++expected.resubmits;
  if (read.end_event == TaskEventType::kFail && written.end_time == -1) {
    expected.end_time = -1;
  }
  return event_fields(expected) == event_fields(written);
}

TEST_F(FormatsTest, SimulatedGoogleTraceReadsBackAsWritten) {
  const TraceSet written = simulate_google_day(0.0);
  const std::string dir = path("sim_day");
  write_google_trace(written, dir);
  const TraceSet read = load(dir, TraceFormat::kGoogleCsv, "google");
  EXPECT_TRUE(validate(written).empty());
  EXPECT_TRUE(validate(read).empty());

  // Task rows: the CSV carries no requests or usage, so compare the
  // event-borne fields.
  ASSERT_EQ(read.tasks().size(), written.tasks().size());
  std::map<std::int64_t, int> jobs_with_late_resubmit;
  for (std::size_t i = 0; i < read.tasks().size(); ++i) {
    const Task& w = written.tasks()[i];
    const Task& r = read.tasks()[i];
    if (event_fields(r) == event_fields(w)) {
      continue;
    }
    EXPECT_TRUE(resubmit_past_horizon(w, r))
        << "task " << w.job_id << "/" << w.task_index << ": written (submit "
        << w.submit_time << ", schedule " << w.schedule_time << ", end "
        << w.end_time << " " << event_name(w.end_event) << ", machine "
        << w.machine_id << ", resubmits " << w.resubmits << "), read ("
        << r.submit_time << ", " << r.schedule_time << ", " << r.end_time
        << " " << event_name(r.end_event) << ", " << r.machine_id << ", "
        << r.resubmits << ")";
    ++jobs_with_late_resubmit[w.job_id];
  }
  // The exception is rare: a resubmission lands past the horizon only
  // when its task fails or is evicted in the last minutes.
  EXPECT_LE(jobs_with_late_resubmit.size(), 8u);

  ASSERT_EQ(read.jobs().size(), written.jobs().size());
  for (const Job& w : written.jobs()) {
    if (jobs_with_late_resubmit.count(w.job_id) != 0) {
      continue;
    }
    const Job& r = job(read, w.job_id);
    EXPECT_EQ(r.submit_time, w.submit_time) << "job " << w.job_id;
    EXPECT_EQ(r.end_time, w.end_time) << "job " << w.job_id;
    EXPECT_EQ(r.num_tasks, w.num_tasks) << "job " << w.job_id;
    EXPECT_EQ(r.priority, w.priority) << "job " << w.job_id;
    EXPECT_EQ(r.cpu_parallelism, w.cpu_parallelism) << "job " << w.job_id;
  }
}

TEST_F(FormatsTest, WarmUpTraceReadsBackValidWithFirstScheduleTimes) {
  const TraceSet written = simulate_google_day(4.0);
  const std::string dir = path("sim_day_warm");
  write_google_trace(written, dir);
  const TraceSet read = load(dir, TraceFormat::kGoogleCsv, "google");
  const std::vector<ValidationIssue> issues = validate(read);
  EXPECT_TRUE(issues.empty()) << issues.size() << " issue(s), first: "
                              << issues.front().message;

  std::map<std::pair<std::int64_t, std::int32_t>, TimeSec> first_schedule;
  for (const TaskEvent& e : read.events()) {
    if (e.type == TaskEventType::kSchedule) {
      first_schedule.try_emplace(task_key(e), e.time);
    }
  }
  std::size_t scheduled_before_zero = 0;
  for (const Task& t : read.tasks()) {
    const auto it = first_schedule.find(task_key(t));
    EXPECT_EQ(t.schedule_time, it == first_schedule.end() ? -1 : it->second)
        << "task " << t.job_id << "/" << t.task_index;
    scheduled_before_zero += t.schedule_time < 0 ? 1 : 0;
  }
  EXPECT_GT(scheduled_before_zero, 0u);
}

}  // namespace
}  // namespace cgc::trace
