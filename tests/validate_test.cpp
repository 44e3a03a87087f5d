// Tests for trace validation: well-formed traces pass, each class of
// corruption is caught.
#include <gtest/gtest.h>

#include "trace/validate.hpp"
#include "util/check.hpp"

namespace cgc::trace {
namespace {

TraceSet valid_trace() {
  TraceSet trace("valid");
  Machine m;
  m.machine_id = 1;
  m.cpu_capacity = 0.5f;
  m.mem_capacity = 0.5f;
  trace.add_machine(m);

  Job j;
  j.job_id = 1;
  j.priority = 2;
  j.submit_time = 0;
  j.end_time = 400;
  trace.add_job(j);

  Task t;
  t.job_id = 1;
  t.task_index = 0;
  t.priority = 2;
  t.submit_time = 0;
  t.schedule_time = 10;
  t.end_time = 400;
  trace.add_task(t);

  trace.add_event({.time = 0, .job_id = 1, .machine_id = -1, .task_index = 0,
                   .type = TaskEventType::kSubmit, .priority = 2});
  trace.add_event({.time = 10, .job_id = 1, .machine_id = 1, .task_index = 0,
                   .type = TaskEventType::kSchedule, .priority = 2});
  trace.add_event({.time = 400, .job_id = 1, .machine_id = 1, .task_index = 0,
                   .type = TaskEventType::kFinish, .priority = 2});

  HostLoadSeries h(1, 0, 300);
  const float cpu[kNumBands] = {0.2f, 0.0f, 0.0f};
  const float mem[kNumBands] = {0.3f, 0.0f, 0.0f};
  h.append(cpu, mem, 0.4f, 0.1f, 1, 0);
  trace.add_host_load(std::move(h));
  trace.finalize();
  return trace;
}

TEST(Validate, CleanTracePasses) {
  const TraceSet trace = valid_trace();
  EXPECT_TRUE(validate(trace).empty());
}

TEST(Validate, IllegalEventSequenceCaught) {
  TraceSet trace("bad-events");
  // FINISH without SUBMIT/SCHEDULE.
  trace.add_event({.time = 5, .job_id = 1, .machine_id = 1, .task_index = 0,
                   .type = TaskEventType::kFinish, .priority = 1});
  trace.finalize();
  const auto issues = validate(trace);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("illegal event"), std::string::npos);
}

TEST(Validate, BadPriorityCaught) {
  TraceSet trace("bad-priority");
  Task t;
  t.job_id = 1;
  t.priority = 0;  // out of [1,12]
  trace.add_task(t);
  trace.finalize();
  EXPECT_FALSE(validate(trace).empty());
}

TEST(Validate, ScheduleBeforeSubmitCaught) {
  TraceSet trace("bad-times");
  Task t;
  t.job_id = 1;
  t.priority = 1;
  t.submit_time = 100;
  t.schedule_time = 50;
  trace.add_task(t);
  trace.finalize();
  EXPECT_FALSE(validate(trace).empty());
}

TEST(Validate, EndBeforeScheduleCaught) {
  TraceSet trace("bad-times-2");
  Task t;
  t.job_id = 1;
  t.priority = 1;
  t.submit_time = 0;
  t.schedule_time = 100;
  t.end_time = 50;
  trace.add_task(t);
  trace.finalize();
  EXPECT_FALSE(validate(trace).empty());
}

TEST(Validate, JobEndingBeforeSubmitCaught) {
  TraceSet trace("bad-job");
  Job j;
  j.job_id = 1;
  j.priority = 1;
  j.submit_time = 100;
  j.end_time = 50;
  trace.add_job(j);
  trace.finalize();
  EXPECT_FALSE(validate(trace).empty());
}

TEST(Validate, TaskOutlivingJobCaught) {
  TraceSet trace("task-outlives");
  Job j;
  j.job_id = 1;
  j.priority = 1;
  j.submit_time = 0;
  j.end_time = 100;
  trace.add_job(j);
  Task t;
  t.job_id = 1;
  t.priority = 1;
  t.submit_time = 0;
  t.schedule_time = 5;
  t.end_time = 200;  // beyond the job's end
  trace.add_task(t);
  trace.finalize();
  EXPECT_FALSE(validate(trace).empty());
}

TEST(Validate, CpuOverCapacityCaught) {
  TraceSet trace("overload");
  Machine m;
  m.machine_id = 1;
  m.cpu_capacity = 0.25f;
  m.mem_capacity = 0.5f;
  trace.add_machine(m);
  HostLoadSeries h(1, 0, 300);
  const float cpu[kNumBands] = {0.3f, 0.0f, 0.0f};  // > 0.25 capacity
  const float mem[kNumBands] = {0.1f, 0.0f, 0.0f};
  h.append(cpu, mem, 0.2f, 0.0f, 1, 0);
  trace.add_host_load(std::move(h));
  trace.finalize();
  const auto issues = validate(trace);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("CPU over capacity"), std::string::npos);
}

TEST(Validate, OverloadToleranceIsRespected) {
  TraceSet trace("tolerance");
  Machine m;
  m.machine_id = 1;
  m.cpu_capacity = 0.25f;
  m.mem_capacity = 0.5f;
  trace.add_machine(m);
  HostLoadSeries h(1, 0, 300);
  const float cpu[kNumBands] = {0.253f, 0.0f, 0.0f};
  const float mem[kNumBands] = {0.1f, 0.0f, 0.0f};
  h.append(cpu, mem, 0.2f, 0.0f, 1, 0);
  trace.add_host_load(std::move(h));
  trace.finalize();
  EXPECT_FALSE(validate(trace, 1e-3).empty());
  EXPECT_TRUE(validate(trace, 1e-2).empty());
}

TEST(Validate, HostLoadForUnknownMachineCaught) {
  TraceSet trace("orphan-series");
  HostLoadSeries h(42, 0, 300);
  const float zero[kNumBands] = {0, 0, 0};
  h.append(zero, zero, 0.0f, 0.0f, 0, 0);
  trace.add_host_load(std::move(h));
  trace.finalize();
  const auto issues = validate(trace);
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("unknown machine"), std::string::npos);
}

TEST(Validate, NegativeQueueCountCaught) {
  TraceSet trace("neg-queue");
  Machine m;
  m.machine_id = 1;
  trace.add_machine(m);
  HostLoadSeries h(1, 0, 300);
  const float zero[kNumBands] = {0, 0, 0};
  h.append(zero, zero, 0.0f, 0.0f, -1, 0);
  trace.add_host_load(std::move(h));
  trace.finalize();
  EXPECT_FALSE(validate(trace).empty());
}

TEST(Validate, IssueMessageNamesTheInvariant) {
  TraceSet trace("bad");
  Task t;
  t.job_id = 1;
  t.priority = 0;
  trace.add_task(t);
  trace.finalize();
  const std::vector<ValidationIssue> issues = validate(trace);
  EXPECT_TRUE(std::any_of(issues.begin(), issues.end(), [](const auto& i) {
    return i.message.find("priority") != std::string::npos;
  }));
}

}  // namespace
}  // namespace cgc::trace
