#include "stream/replay.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <limits>

#include "exec/parallel.hpp"
#include "stream/shutdown.hpp"
#include "trace/google_format.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace cgc::stream {

namespace {

/// Batch size synthesize_events drains replay_trace with.
constexpr std::size_t kDrainBatch = 8192;

/// One replayed event of a task-only trace: its time and the index of
/// its task record. Each key array holds one lifecycle step (SUBMIT,
/// SCHEDULE or terminal), so the step is implied by the array.
struct ReplayKey {
  trace::TimeSec time;
  std::uint64_t record;
};

constexpr auto key_before = [](const ReplayKey& a, const ReplayKey& b) {
  return a.time != b.time ? a.time < b.time : a.record < b.record;
};

/// The lifecycle steps a task record replays as, in tie-break order.
enum Step : std::size_t { kSubmitStep, kScheduleStep, kEndStep, kSteps };

trace::TaskEvent event_of(const trace::Task& task, Step step,
                          trace::TimeSec time) {
  trace::TaskEvent event;
  event.time = time;
  event.job_id = task.job_id;
  event.task_index = task.task_index;
  event.priority = task.priority;
  event.machine_id = task.machine_id;
  switch (step) {
    case kSubmitStep:
      event.type = trace::TaskEventType::kSubmit;
      event.machine_id = -1;
      break;
    case kScheduleStep:
      event.type = trace::TaskEventType::kSchedule;
      break;
    default:
      event.type = task.end_event;
      break;
  }
  return event;
}

/// Replays a task-only trace: one sorted key array per lifecycle step,
/// merged on (time, record, step). The record index orders like
/// (job_id, task_index) because the tasks are in finalize() order, so
/// the merge is the (time, job_id, task_index, step) order.
std::uint64_t replay_tasks(std::span<const trace::Task> tasks,
                           std::size_t batch_size, const BatchSink& sink) {
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    const trace::Task& a = tasks[i - 1];
    const trace::Task& b = tasks[i];
    CGC_CHECK_MSG(a.job_id < b.job_id ||
                      (a.job_id == b.job_id && a.task_index <= b.task_index),
                  "replay needs tasks in (job_id, task_index) order; "
                  "finalize() the trace first");
  }
  std::array<std::vector<ReplayKey>, kSteps> keys;
  for (std::vector<ReplayKey>& step_keys : keys) {
    step_keys.reserve(tasks.size());
  }
  for (std::size_t r = 0; r < tasks.size(); ++r) {
    const trace::Task& task = tasks[r];
    keys[kSubmitStep].push_back({task.submit_time, r});
    if (task.schedule_time >= 0) {
      keys[kScheduleStep].push_back({task.schedule_time, r});
    }
    if (task.end_time >= 0) {
      keys[kEndStep].push_back({task.end_time, r});
    }
  }
  // Keys are unique within an array (one per record), so every sort
  // gives the same order; the three arrays sort concurrently.
  exec::parallel_for(
      0, kSteps,
      [&keys](std::size_t s) {
        if (!std::is_sorted(keys[s].begin(), keys[s].end(), key_before)) {
          std::sort(keys[s].begin(), keys[s].end(), key_before);
        }
      },
      1);

  std::array<std::size_t, kSteps> next{};
  std::vector<trace::TaskEvent> batch;
  batch.reserve(std::min(batch_size, 3 * tasks.size()));
  std::uint64_t delivered = 0;
  while (!shutdown_requested()) {
    batch.clear();
    while (batch.size() < batch_size) {
      // Smallest head; a tie on (time, record) goes to the earlier step.
      std::size_t best = kSteps;
      for (std::size_t s = 0; s < kSteps; ++s) {
        if (next[s] < keys[s].size() &&
            (best == kSteps ||
             key_before(keys[s][next[s]], keys[best][next[best]]))) {
          best = s;
        }
      }
      if (best == kSteps) {
        break;
      }
      const ReplayKey& key = keys[best][next[best]++];
      batch.push_back(
          event_of(tasks[key.record], static_cast<Step>(best), key.time));
    }
    if (batch.empty()) {
      break;
    }
    sink(batch);
    delivered += batch.size();
  }
  return delivered;
}

}  // namespace

std::uint64_t replay_trace(const trace::TraceSet& trace,
                           std::size_t batch_size, const BatchSink& sink) {
  CGC_CHECK(batch_size > 0);
  const std::span<const trace::TaskEvent> events = trace.events();
  if (events.empty()) {
    return replay_tasks(trace.tasks(), batch_size, sink);
  }
  std::uint64_t delivered = 0;
  for (std::size_t i = 0; i < events.size() && !shutdown_requested();
       i += batch_size) {
    const std::span<const trace::TaskEvent> batch =
        events.subspan(i, std::min(batch_size, events.size() - i));
    sink(batch);
    delivered += batch.size();
  }
  return delivered;
}

std::vector<trace::TaskEvent> synthesize_events(
    const trace::TraceSet& trace) {
  std::vector<trace::TaskEvent> events;
  events.reserve(trace.events().empty() ? 3 * trace.tasks().size()
                                        : trace.events().size());
  replay_trace(trace, kDrainBatch,
               [&events](std::span<const trace::TaskEvent> batch) {
                 events.insert(events.end(), batch.begin(), batch.end());
               });
  return events;
}

bool parse_google_event_line(std::string_view line,
                             trace::TaskEvent* event) {
  CGC_CHECK(event != nullptr);
  static thread_local std::vector<std::string_view> fields;
  util::split_fields(line, ',', &fields);
  try {
    return trace::decode_task_event(fields, event);
  } catch (const util::Error&) {
    return false;
  }
}

std::uint64_t read_event_stream(std::istream& in, std::size_t batch_size,
                                const BatchSink& sink, StreamHealth* health) {
  CGC_CHECK(batch_size > 0);
  // The loader's record loop and task_events decoder, tolerant with no
  // cap: a malformed row is counted, never fatal.
  trace::ParseOptions options;
  options.tolerant = true;
  options.max_bad_lines = std::numeric_limits<std::size_t>::max();
  options.max_recorded = 0;
  trace::ParseReport report;
  trace::RecordLoop rows(in, "-", util::Split::kComma, options, &report);
  std::uint64_t delivered = 0;
  std::vector<trace::TaskEvent> batch;
  batch.reserve(batch_size);
  trace::TaskEvent event;
  while (!shutdown_requested() &&
         rows.next(trace::decode_task_event, &event)) {
    batch.push_back(event);
    if (batch.size() >= batch_size) {
      sink(batch);
      delivered += batch.size();
      batch.clear();
    }
  }
  if (!batch.empty()) {
    sink(batch);
    delivered += batch.size();
  }
  if (health != nullptr) {
    health->parse_bad_lines += report.lines_bad;
  }
  return delivered;
}

}  // namespace cgc::stream
