// replay_trace tests: a task-only trace replays in the order of a full
// sort on (time, job, task, type) — on a generated workload and on a
// hand-built trace with same-second lifecycles, negative times, tasks
// never scheduled or never ended — in batches of exactly batch_size;
// an event-bearing trace replays its own event log without a copy; a
// requested shutdown ends either replay at the next batch; the stream
// is identical at 1 and 4 workers; and the task_events pipe reads CRLF
// lines like LF lines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "exec/parallel.hpp"
#include "gen/google_model.hpp"
#include "stream/replay.hpp"
#include "stream/shutdown.hpp"
#include "trace/trace_set.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace cgc {
namespace {

using trace::Task;
using trace::TaskEvent;
using trace::TaskEventType;

/// The stream order before the merge replaced the sort: time, job,
/// task, then event type (SUBMIT < SCHEDULE < terminals).
bool event_before(const TaskEvent& a, const TaskEvent& b) {
  return std::tuple(a.time, a.job_id, a.task_index, static_cast<int>(a.type)) <
         std::tuple(b.time, b.job_id, b.task_index, static_cast<int>(b.type));
}

/// The SUBMIT/SCHEDULE/terminal events of every task record, fully
/// sorted with event_before.
std::vector<TaskEvent> sorted_task_events(const trace::TraceSet& trace) {
  std::vector<TaskEvent> events;
  for (const Task& task : trace.tasks()) {
    TaskEvent event;
    event.job_id = task.job_id;
    event.task_index = task.task_index;
    event.priority = task.priority;
    event.time = task.submit_time;
    event.type = TaskEventType::kSubmit;
    event.machine_id = -1;
    events.push_back(event);
    event.machine_id = task.machine_id;
    if (task.schedule_time >= 0) {
      event.time = task.schedule_time;
      event.type = TaskEventType::kSchedule;
      events.push_back(event);
    }
    if (task.end_time >= 0) {
      event.time = task.end_time;
      event.type = task.end_event;
      events.push_back(event);
    }
  }
  std::sort(events.begin(), events.end(), event_before);
  return events;
}

bool same_event(const TaskEvent& a, const TaskEvent& b) {
  return a.time == b.time && a.type == b.type && a.job_id == b.job_id &&
         a.task_index == b.task_index && a.priority == b.priority &&
         a.machine_id == b.machine_id;
}

void expect_same_stream(const std::vector<TaskEvent>& got,
                        const std::vector<TaskEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(same_event(got[i], want[i])) << "event #" << i << " differs";
  }
}

/// replay_trace's batches, concatenated, and their sizes.
struct Replayed {
  std::vector<TaskEvent> events;
  std::vector<std::size_t> batch_sizes;
};

Replayed replay(const trace::TraceSet& trace, std::size_t batch_size) {
  Replayed out;
  const std::uint64_t delivered = stream::replay_trace(
      trace, batch_size, [&out](std::span<const TaskEvent> batch) {
        out.events.insert(out.events.end(), batch.begin(), batch.end());
        out.batch_sizes.push_back(batch.size());
      });
  EXPECT_EQ(delivered, out.events.size());
  return out;
}

void expect_full_batches(const Replayed& replayed, std::size_t batch_size) {
  ASSERT_FALSE(replayed.batch_sizes.empty());
  for (std::size_t i = 0; i + 1 < replayed.batch_sizes.size(); ++i) {
    EXPECT_EQ(replayed.batch_sizes[i], batch_size) << "batch #" << i;
  }
  EXPECT_GE(replayed.batch_sizes.back(), 1u);
  EXPECT_LE(replayed.batch_sizes.back(), batch_size);
}

trace::TraceSet generated_workload() {
  gen::GoogleModelConfig model_config;
  model_config.task_sampling_rate = 0.05;
  return gen::GoogleWorkloadModel(model_config)
      .generate_workload(util::kSecondsPerDay);
}

Task make_task(std::int64_t job_id, std::int32_t task_index,
               util::TimeSec submit, util::TimeSec schedule,
               util::TimeSec end, TaskEventType end_event = TaskEventType::kFinish,
               std::int64_t machine_id = -1) {
  Task task;
  task.job_id = job_id;
  task.task_index = task_index;
  task.priority = static_cast<std::uint8_t>(1 + job_id % 12);
  task.submit_time = submit;
  task.schedule_time = schedule;
  task.end_time = end;
  task.end_event = end_event;
  task.machine_id = machine_id;
  return task;
}

TEST(ReplayTraceTest, GeneratedWorkloadMatchesFullSort) {
  const trace::TraceSet workload = generated_workload();
  ASSERT_TRUE(workload.events().empty());
  const std::vector<TaskEvent> want = sorted_task_events(workload);
  // Unique keys, so the reference sort order is fully determined.
  ASSERT_EQ(std::adjacent_find(want.begin(), want.end(),
                               [](const TaskEvent& a, const TaskEvent& b) {
                                 return !event_before(a, b);
                               }),
            want.end());
  const Replayed replayed = replay(workload, 1000);
  expect_same_stream(replayed.events, want);
  expect_full_batches(replayed, 1000);
  expect_same_stream(stream::synthesize_events(workload), want);
}

TEST(ReplayTraceTest, HandBuiltEdgeCasesMatchFullSort) {
  trace::TraceSet hand("hand");
  // Added out of order: replay relies on finalize()'s task order.
  hand.add_task(make_task(5, 0, 3, 4, -1, TaskEventType::kFinish, 9));
  // Never scheduled: dies from pending.
  hand.add_task(make_task(4, 0, 7, -1, 15, TaskEventType::kKill));
  // Negative submit time (submitted before the trace window).
  hand.add_task(make_task(3, 0, -50, 2, 40, TaskEventType::kFail, 8));
  // Two tasks of one job in the same seconds.
  hand.add_task(make_task(2, 1, 10, 12, 30, TaskEventType::kFinish, 7));
  hand.add_task(make_task(2, 0, 10, 12, 20, TaskEventType::kEvict, 6));
  // Submit, schedule and end in one second.
  hand.add_task(make_task(1, 0, 5, 5, 5, TaskEventType::kFinish, 3));
  hand.finalize();

  const std::vector<TaskEvent> want = sorted_task_events(hand);
  ASSERT_EQ(want.size(), 16u);
  for (const std::size_t batch_size : {1u, 5u, 16u, 100u}) {
    const Replayed replayed = replay(hand, batch_size);
    expect_same_stream(replayed.events, want);
    expect_full_batches(replayed, batch_size);
  }
  const Replayed five = replay(hand, 5);
  EXPECT_EQ(five.batch_sizes, (std::vector<std::size_t>{5, 5, 5, 1}));

  // The negative submit comes first; the same-second lifecycle of task
  // (1, 0) replays in state-machine order after job 5's events at 3, 4.
  const std::vector<TaskEvent>& got = five.events;
  EXPECT_EQ(got[0].time, -50);
  EXPECT_EQ(got[0].job_id, 3);
  for (std::size_t i = 4; i < 7; ++i) {
    EXPECT_EQ(got[i].time, 5);
    EXPECT_EQ(got[i].job_id, 1);
  }
  EXPECT_EQ(got[4].type, TaskEventType::kSubmit);
  EXPECT_EQ(got[5].type, TaskEventType::kSchedule);
  EXPECT_EQ(got[6].type, TaskEventType::kFinish);
  EXPECT_EQ(got[4].machine_id, -1);
  EXPECT_EQ(got[5].machine_id, 3);
}

TEST(ReplayTraceTest, UnfinalizedTaskOrderIsRejected) {
  trace::TraceSet unsorted("unsorted");
  unsorted.add_task(make_task(2, 0, 10, 11, 12));
  unsorted.add_task(make_task(1, 0, 10, 11, 12));
  EXPECT_THROW(replay(unsorted, 8), util::Error);
}

TEST(ReplayTraceTest, EventBearingTraceReplaysItsEventLogWithoutACopy) {
  trace::TraceSet trace("events");
  for (int i = 0; i < 10; ++i) {
    TaskEvent event;
    event.time = 100 - 10 * i;  // finalize() sorts these by time
    event.job_id = i;
    event.type = i % 2 == 0 ? TaskEventType::kSubmit
                            : TaskEventType::kSchedule;
    trace.add_event(event);
  }
  // Task rows are ignored when the trace has its own event log.
  trace.add_task(make_task(1, 0, 0, 1, 2));
  trace.finalize();

  std::vector<const TaskEvent*> starts;
  std::vector<TaskEvent> got;
  stream::replay_trace(trace, 3, [&](std::span<const TaskEvent> batch) {
    starts.push_back(batch.data());
    got.insert(got.end(), batch.begin(), batch.end());
  });
  const std::span<const TaskEvent> log = trace.events();
  expect_same_stream(got, std::vector<TaskEvent>(log.begin(), log.end()));
  ASSERT_EQ(starts.size(), 4u);
  for (std::size_t b = 0; b < starts.size(); ++b) {
    EXPECT_EQ(starts[b], log.data() + 3 * b) << "batch #" << b;
  }
}

/// A shutdown requested inside a batch ends the replay at the next
/// batch boundary, for both replay paths.
TEST(ReplayTraceTest, StopsAtTheNextBatchOnceShutdownIsRequested) {
  trace::TraceSet events_trace("events");
  for (int i = 0; i < 10; ++i) {
    TaskEvent event;
    event.time = i;
    event.job_id = i;
    events_trace.add_event(event);
  }
  events_trace.finalize();
  const trace::TraceSet workload = generated_workload();
  for (const trace::TraceSet* trace :
       {static_cast<const trace::TraceSet*>(&events_trace), &workload}) {
    stream::clear_shutdown();
    std::size_t batches = 0;
    const std::uint64_t delivered = stream::replay_trace(
        *trace, 3, [&batches](std::span<const TaskEvent>) {
          if (++batches == 2) {
            stream::request_shutdown();
          }
        });
    stream::clear_shutdown();
    EXPECT_EQ(batches, 2u) << trace->system_name();
    EXPECT_EQ(delivered, 6u) << trace->system_name();
  }
}

TEST(ReplayTraceTest, StreamIsIdenticalAtOneAndFourWorkers) {
  const trace::TraceSet workload = generated_workload();
  const auto run = [&workload](util::ThreadPool* pool) {
    exec::ScopedPool scoped(pool);
    return replay(workload, 4096);
  };
  util::ThreadPool one(1);
  util::ThreadPool four(4);
  const Replayed a = run(&one);
  const Replayed b = run(&four);
  ASSERT_FALSE(a.events.empty());
  expect_same_stream(a.events, b.events);
  EXPECT_EQ(a.batch_sizes, b.batch_sizes);
}

/// The task_events pipe reads lines by the trace readers' rules: the
/// same rows with LF and with CRLF endings, behind '#' and ';' header
/// lines, give the same events and no bad lines.
TEST(ReadEventStreamTest, CrLfLinesReadLikeLfLines) {
  const std::vector<std::string> lines = {
      "# task_events", "; swf-style comment", "0,,1001,0,,0,,,1",
      "1000000,,1001,0,42,1,,,1", "5000000,,1001,0,42,4,,,1"};
  const auto read = [&lines](const char* ending, stream::StreamHealth* health) {
    std::string text;
    for (const std::string& line : lines) {
      text += line + ending;
    }
    std::istringstream in(text);
    std::vector<TaskEvent> events;
    stream::read_event_stream(
        in, 2,
        [&events](std::span<const TaskEvent> batch) {
          events.insert(events.end(), batch.begin(), batch.end());
        },
        health);
    return events;
  };
  stream::clear_shutdown();
  stream::StreamHealth lf_health;
  stream::StreamHealth crlf_health;
  const std::vector<TaskEvent> lf = read("\n", &lf_health);
  const std::vector<TaskEvent> crlf = read("\r\n", &crlf_health);
  ASSERT_EQ(lf.size(), 3u);
  EXPECT_EQ(lf[1].type, TaskEventType::kSchedule);
  EXPECT_EQ(lf[1].machine_id, 42);
  EXPECT_EQ(lf[2].time, 5);
  EXPECT_EQ(lf[2].priority, 2);
  expect_same_stream(crlf, lf);
  EXPECT_EQ(lf_health.parse_bad_lines, 0u);
  EXPECT_EQ(crlf_health.parse_bad_lines, 0u);
}

}  // namespace
}  // namespace cgc
