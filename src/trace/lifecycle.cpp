#include "trace/lifecycle.hpp"

#include <algorithm>
#include <numeric>

namespace cgc::trace {

std::vector<Task> replay_tasks(std::span<const TaskEvent> events,
                               std::vector<RefusedEvent>* refused) {
  // Group by task; the stable sort keeps each task's events in time order.
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::ranges::stable_sort(
      order, {}, [events](std::size_t i) { return task_key(events[i]); });
  std::vector<Task> tasks;
  for (std::size_t i = 0; i < order.size();) {
    Task t;
    t.job_id = events[order[i]].job_id;
    t.task_index = events[order[i]].task_index;
    TaskState state = TaskState::kUnsubmitted;
    bool scheduled = false;
    for (; i < order.size() && task_key(events[order[i]]) == task_key(t);
         ++i) {
      const TaskEvent& e = events[order[i]];
      const std::optional<TaskState> next = next_state(state, e.type);
      if (!next) {
        if (refused != nullptr) {
          refused->push_back({e, state});
        }
        continue;
      }
      if (e.type == TaskEventType::kSubmit) {
        if (state == TaskState::kUnsubmitted) {
          t.submit_time = e.time;
          t.priority = e.priority;
        } else {
          ++t.resubmits;
          t.end_time = -1;
        }
      } else if (e.type == TaskEventType::kSchedule) {
        if (!scheduled) {
          t.schedule_time = e.time;
          scheduled = true;
        }
        t.machine_id = e.machine_id;
      } else if (is_terminal(e.type) && e.type != TaskEventType::kEvict) {
        t.end_time = e.time;
        t.end_event = e.type;
      }
      state = *next;
    }
    if (state != TaskState::kUnsubmitted) {
      tasks.push_back(t);
    }
  }
  return tasks;
}

std::vector<Job> roll_up_jobs(std::span<const Task> tasks) {
  const auto key = [](const Task& t) { return task_key(t); };
  if (!std::ranges::is_sorted(tasks, {}, key)) {
    std::vector<Task> sorted(tasks.begin(), tasks.end());
    std::ranges::sort(sorted, {}, key);
    return roll_up_jobs(sorted);
  }
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < tasks.size();) {
    const Task& first = tasks[i];
    Job j;
    j.job_id = first.job_id;
    j.priority = first.priority;
    j.submit_time = first.submit_time;
    j.end_time = first.end_time;
    j.mem_usage = first.mem_usage;
    double cpu_seconds = static_cast<double>(first.run_duration());
    for (++i; i < tasks.size() && tasks[i].job_id == j.job_id; ++i) {
      const Task& t = tasks[i];
      j.submit_time = std::min(j.submit_time, t.submit_time);
      // A job completes when its last task does; any unfinished task
      // leaves the job unfinished.
      if (j.end_time >= 0) {
        j.end_time = t.end_time < 0 ? -1 : std::max(j.end_time, t.end_time);
      }
      ++j.num_tasks;
      j.mem_usage += t.mem_usage;
      cpu_seconds += static_cast<double>(t.run_duration());
    }
    // Formula (4): one processor-equivalent per task; parallelism is
    // the mean number of concurrently running tasks.
    const TimeSec length = j.length();
    j.cpu_parallelism =
        length > 0
            ? static_cast<float>(cpu_seconds / static_cast<double>(length))
            : 1.0f;
    jobs.push_back(j);
  }
  return jobs;
}

}  // namespace cgc::trace
