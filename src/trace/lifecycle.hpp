// The task lifecycle, once: task events -> task records (replay_tasks,
// under the transition table next_state) -> job records (roll_up_jobs).
// The Google CSV loader, validate() and ClusterSim::run share them, so
// a simulated trace read back from task_events has the records it was
// written with.
#pragma once

#include <span>
#include <vector>

#include "trace/types.hpp"

namespace cgc::trace {

/// An event next_state() refused; its task stayed in `state`.
struct RefusedEvent {
  TaskEvent event;
  TaskState state = TaskState::kUnsubmitted;
};

/// Walks each task's events once, in time order, through next_state();
/// returns one Task per submitted task, by the simulator's rules:
///  - submit_time and priority come from the first SUBMIT; each later
///    SUBMIT counts in `resubmits` and clears end_time;
///  - schedule_time is the first SCHEDULE, machine_id the last one's;
///  - FAIL, FINISH, KILL and LOST set end_time and end_event; EVICT
///    ends an attempt, not the record.
/// `events` must be time-sorted (finalize() order). Records come out in
/// (job_id, task_index) order; request and usage fields stay 0. Refused
/// events are skipped and, when `refused` is not null, appended to it.
std::vector<Task> replay_tasks(std::span<const TaskEvent> events,
                               std::vector<RefusedEvent>* refused = nullptr);

/// One Job per job id of `tasks`, ascending: submit is the tasks'
/// earliest, end the latest (-1 when any task has not completed),
/// priority the first task's, mem_usage the sum and cpu_parallelism
/// Formula (4): task run time over job length (1 for a length <= 0).
/// Tasks group in (job_id, task_index) order; other input is sorted.
std::vector<Job> roll_up_jobs(std::span<const Task> tasks);

}  // namespace cgc::trace
