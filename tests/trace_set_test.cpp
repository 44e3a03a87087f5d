// Tests for TraceSet: indexing, sorting, derived sample vectors.
#include <gtest/gtest.h>

#include "trace/trace_set.hpp"
#include "util/check.hpp"

namespace cgc::trace {
namespace {

TraceSet make_small_trace() {
  TraceSet trace("test");
  trace.set_duration(4 * util::kSecondsPerHour);

  Machine m;
  m.machine_id = 7;
  m.cpu_capacity = 0.5f;
  m.mem_capacity = 0.5f;
  trace.add_machine(m);

  // Two jobs: job 1 with two tasks, job 2 with one (unfinished).
  Job j1;
  j1.job_id = 1;
  j1.priority = 3;
  j1.submit_time = 100;
  j1.end_time = 1100;
  j1.num_tasks = 2;
  trace.add_job(j1);
  Job j2;
  j2.job_id = 2;
  j2.priority = 10;
  j2.submit_time = 7200;
  j2.end_time = -1;
  trace.add_job(j2);

  Task t1;
  t1.job_id = 1;
  t1.task_index = 0;
  t1.priority = 3;
  t1.submit_time = 100;
  t1.schedule_time = 110;
  t1.end_time = 510;
  trace.add_task(t1);
  Task t2 = t1;
  t2.task_index = 1;
  t2.schedule_time = 120;
  t2.end_time = 1100;
  trace.add_task(t2);
  Task t3;
  t3.job_id = 2;
  t3.task_index = 0;
  t3.priority = 10;
  t3.submit_time = 7200;
  t3.schedule_time = 7210;
  t3.end_time = -1;
  trace.add_task(t3);

  // Events deliberately added out of order: finalize() must sort.
  trace.add_event({.time = 510, .job_id = 1, .machine_id = 7, .task_index = 0,
                   .type = TaskEventType::kFinish, .priority = 3});
  trace.add_event({.time = 100, .job_id = 1, .machine_id = -1, .task_index = 0,
                   .type = TaskEventType::kSubmit, .priority = 3});
  trace.add_event({.time = 110, .job_id = 1, .machine_id = 7, .task_index = 0,
                   .type = TaskEventType::kSchedule, .priority = 3});

  HostLoadSeries h(7, 0, util::kSamplePeriod);
  const float cpu[kNumBands] = {0.1f, 0.05f, 0.02f};
  const float mem[kNumBands] = {0.2f, 0.1f, 0.05f};
  h.append(cpu, mem, 0.4f, 0.1f, 3, 0);
  h.append(cpu, mem, 0.45f, 0.2f, 4, 1);
  trace.add_host_load(std::move(h));

  trace.finalize();
  return trace;
}

TEST(TraceSet, FinalizeSortsEventsByTime) {
  const TraceSet trace = make_small_trace();
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, TaskEventType::kSubmit);
  EXPECT_EQ(events[1].type, TaskEventType::kSchedule);
  EXPECT_EQ(events[2].type, TaskEventType::kFinish);
}

TEST(TraceSet, MachineLookup) {
  const TraceSet trace = make_small_trace();
  ASSERT_TRUE(trace.machine_by_id(7).has_value());
  EXPECT_FLOAT_EQ(trace.machine_by_id(7)->cpu_capacity, 0.5f);
  EXPECT_FALSE(trace.machine_by_id(99).has_value());
}

TEST(TraceSet, JobLookupAndTaskRanges) {
  const TraceSet trace = make_small_trace();
  // Jobs sorted by submit time.
  ASSERT_EQ(trace.jobs().size(), 2u);
  EXPECT_EQ(trace.jobs()[0].job_id, 1);
  EXPECT_EQ(trace.jobs()[0].num_tasks, 2);
  EXPECT_EQ(trace.tasks_for_job(1).size(), 2u);
  EXPECT_EQ(trace.tasks_for_job(2).size(), 1u);
  EXPECT_EQ(trace.tasks_for_job(42).size(), 0u);
  // Tasks within a job sorted by index.
  EXPECT_EQ(trace.tasks_for_job(1)[0].task_index, 0);
  EXPECT_EQ(trace.tasks_for_job(1)[1].task_index, 1);
}

TEST(TraceSet, HostLoadLookup) {
  const TraceSet trace = make_small_trace();
  ASSERT_NE(trace.host_load_for(7), nullptr);
  EXPECT_EQ(trace.host_load_for(7)->size(), 2u);
  EXPECT_EQ(trace.host_load_for(5), nullptr);
}

TEST(TraceSet, SummaryCounts) {
  const TraceSet trace = make_small_trace();
  const TraceSummary s = trace.summary();
  EXPECT_EQ(s.num_jobs, 2u);
  EXPECT_EQ(s.num_tasks, 3u);
  EXPECT_EQ(s.num_events, 3u);
  EXPECT_EQ(s.num_machines, 1u);
  EXPECT_EQ(s.num_samples, 2u);
  // One terminal event (FINISH), zero abnormal.
  EXPECT_DOUBLE_EQ(s.abnormal_completion_fraction, 0.0);
}

TEST(TraceSet, JobLengthsSkipUnfinished) {
  const TraceSet trace = make_small_trace();
  const auto lengths = trace.job_lengths();
  ASSERT_EQ(lengths.size(), 1u);
  EXPECT_DOUBLE_EQ(lengths[0], 1000.0);
}

TEST(TraceSet, TaskRunDurationsSkipUnfinished) {
  const TraceSet trace = make_small_trace();
  const auto durations = trace.task_run_durations();
  ASSERT_EQ(durations.size(), 2u);
  EXPECT_DOUBLE_EQ(durations[0], 400.0);
  EXPECT_DOUBLE_EQ(durations[1], 980.0);
}

TEST(TraceSet, SubmissionIntervals) {
  const TraceSet trace = make_small_trace();
  const auto intervals = trace.submission_intervals();
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0], 7100.0);
}

TEST(TraceSet, JobsPerHourBins) {
  const TraceSet trace = make_small_trace();
  const auto hourly = trace.jobs_per_hour();
  ASSERT_EQ(hourly.size(), 4u);
  EXPECT_DOUBLE_EQ(hourly[0], 1.0);  // job 1 at t=100
  EXPECT_DOUBLE_EQ(hourly[1], 0.0);
  EXPECT_DOUBLE_EQ(hourly[2], 1.0);  // job 2 at t=7200
}

TEST(TraceSet, MemUsageScaling) {
  TraceSet cloud("c");
  Job j;
  j.job_id = 1;
  j.submit_time = 0;
  j.end_time = 10;
  j.mem_usage = 0.01f;  // normalized
  cloud.add_job(j);
  cloud.set_duration(100);
  cloud.finalize();
  // 0.01 of a 32 GB node = 327.68 MB.
  EXPECT_NEAR(cloud.job_mem_usage(32.0)[0], 327.68, 0.01);
  // Grid traces are already in MB: scaling must not apply.
  TraceSet grid("g");
  grid.set_memory_in_mb(true);
  j.mem_usage = 500.0f;
  grid.add_job(j);
  grid.set_duration(100);
  grid.finalize();
  EXPECT_DOUBLE_EQ(grid.job_mem_usage(32.0)[0], 500.0);
}

TEST(TraceSet, QueriesBeforeFinalizeThrow) {
  TraceSet trace("t");
  trace.add_job({});
  EXPECT_THROW(trace.tasks_for_job(1), util::Error);
  EXPECT_THROW(trace.machine_by_id(1), util::Error);
}

TEST(TraceSet, DurationInferredFromEvents) {
  TraceSet trace("t");
  trace.add_event({.time = 5000, .job_id = 1, .machine_id = -1, .task_index = 0,
                   .type = TaskEventType::kSubmit, .priority = 1});
  trace.finalize();
  EXPECT_EQ(trace.duration(), 5000);
}

TEST(HostLoadSeries, BandAccessorsAndMaxima) {
  HostLoadSeries h(1, 0, 300);
  const float cpu1[kNumBands] = {0.1f, 0.2f, 0.3f};
  const float mem1[kNumBands] = {0.05f, 0.05f, 0.1f};
  const float cpu2[kNumBands] = {0.05f, 0.1f, 0.15f};
  h.append(cpu1, mem1, 0.5f, 0.2f, 10, 0);
  h.append(cpu2, mem1, 0.6f, 0.1f, 8, 2);
  EXPECT_FLOAT_EQ(h.cpu_total(0), 0.6f);
  EXPECT_FLOAT_EQ(h.cpu_from_band(PriorityBand::kMid, 0), 0.5f);
  EXPECT_FLOAT_EQ(h.cpu_from_band(PriorityBand::kHigh, 0), 0.3f);
  EXPECT_FLOAT_EQ(h.max_cpu(), 0.6f);
  EXPECT_FLOAT_EQ(h.max_mem_assigned(), 0.6f);
  EXPECT_FLOAT_EQ(h.max_page_cache(), 0.2f);
  EXPECT_EQ(h.time_at(1), 300);
  // Relative series clamps into [0,1].
  const auto rel = h.cpu_relative(0.5, PriorityBand::kLow);
  EXPECT_DOUBLE_EQ(rel[0], 1.0);  // 0.6/0.5 clamped
  EXPECT_NEAR(rel[1], 0.6, 1e-6);
}

}  // namespace
}  // namespace cgc::trace
