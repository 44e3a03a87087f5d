// Core trace data model shared by generators, the simulator, parsers, and
// every analyzer.
//
// Terminology follows the paper and the Google cluster-usage trace
// format: a *job* is a user request comprised of one or more *tasks*;
// tasks move through the state machine unsubmitted -> pending -> running
// -> dead via the events SUBMIT/SCHEDULE/{EVICT,FAIL,FINISH,KILL,LOST};
// a *machine* has normalized capacities; *host load* is a per-machine
// time series sampled every 5 minutes.
//
// Units: time in seconds since trace start (util::TimeSec); CPU and
// memory in normalized units (fraction of the largest machine's
// capacity), as released Google traces are linearly scaled.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>

#include "util/check.hpp"
#include "util/time_util.hpp"

namespace cgc::trace {

using util::TimeSec;

// ---------------------------------------------------------------------------
// Priorities
// ---------------------------------------------------------------------------

/// The Google trace has 12 scheduling priorities; the paper numbers them
/// 1..12 and clusters them into three bands (Fig 2).
inline constexpr int kNumPriorities = 12;
inline constexpr int kMinPriority = 1;
inline constexpr int kMaxPriority = 12;

enum class PriorityBand : std::uint8_t { kLow = 0, kMid = 1, kHigh = 2 };
inline constexpr std::size_t kNumBands = 3;

/// Maps priority 1..12 to its band: low (1-4), mid (5-8), high (9-12).
constexpr PriorityBand band_of(int priority) {
  return priority <= 4   ? PriorityBand::kLow
         : priority <= 8 ? PriorityBand::kMid
                         : PriorityBand::kHigh;
}

constexpr std::string_view band_name(PriorityBand band) {
  switch (band) {
    case PriorityBand::kLow:
      return "low";
    case PriorityBand::kMid:
      return "mid";
    case PriorityBand::kHigh:
      return "high";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Task events and states
// ---------------------------------------------------------------------------

/// Task lifecycle events (Figure 1 of the paper / clusterdata format).
enum class TaskEventType : std::uint8_t {
  kSubmit = 0,    ///< enters the pending queue
  kSchedule = 1,  ///< placed on a machine, starts running
  kEvict = 2,     ///< preempted by a higher-priority task (abnormal end)
  kFail = 3,      ///< task failure (abnormal end)
  kFinish = 4,    ///< normal completion
  kKill = 5,      ///< killed by its user (abnormal end)
  kLost = 6,      ///< source data missing (abnormal end)
  kUpdate = 7,    ///< user adjusted constraints at runtime
};
inline constexpr std::size_t kNumTaskEventTypes = 8;

/// True for events that move the task to the dead state.
constexpr bool is_terminal(TaskEventType e) {
  switch (e) {
    case TaskEventType::kEvict:
    case TaskEventType::kFail:
    case TaskEventType::kFinish:
    case TaskEventType::kKill:
    case TaskEventType::kLost:
      return true;
    default:
      return false;
  }
}

/// True for abnormal completions (everything terminal except FINISH).
constexpr bool is_abnormal(TaskEventType e) {
  return is_terminal(e) && e != TaskEventType::kFinish;
}

std::string_view event_name(TaskEventType e);

/// Task states (Figure 1 of the paper).
enum class TaskState : std::uint8_t {
  kUnsubmitted = 0,
  kPending = 1,
  kRunning = 2,
  kDead = 3,
};

std::string_view state_name(TaskState s);

/// The task state machine as one transition table: the state a task
/// enters when `event` fires in state `from`, or nullopt when the event
/// is illegal there. Never throws. Terminal events from PENDING follow
/// the state diagram of the clusterdata-2011 schema (Reiss, Wilkes and
/// Hellerstein, "Google cluster-usage traces: format + schema", Fig. 2):
/// FAIL, KILL and LOST can end a task that never ran, while EVICT and
/// FINISH need a RUNNING task. The simulator emits every terminal event
/// from RUNNING.
constexpr std::optional<TaskState> next_state(TaskState from,
                                              TaskEventType event) {
  constexpr std::uint8_t P = 1, R = 2, D = 3, X = 0xff;  // X: illegal
  constexpr std::uint8_t kNext[4][kNumTaskEventTypes] = {
      // SUBMIT SCHEDULE EVICT FAIL FINISH KILL LOST UPDATE
      {P, X, X, X, X, X, X, X},  // UNSUBMITTED
      {X, R, X, D, X, D, D, P},  // PENDING
      {X, X, D, D, D, D, D, R},  // RUNNING
      {P, X, X, X, X, X, X, X},  // DEAD: resubmission
  };
  const std::uint8_t next = kNext[static_cast<std::size_t>(from)]
                                 [static_cast<std::size_t>(event)];
  return next == X ? std::nullopt
                   : std::optional(static_cast<TaskState>(next));
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

// Record layouts: fields run from widest to narrowest, so the only
// padding is at the tail (TaskEvent 32 B, Task 72 B, Job 48 B; the
// static_asserts pin them). Positional initializers would silently swap
// same-typed fields after a reorder: build records field by field or
// with designated initializers.

/// A timestamped task event record (one row of a task_events table).
struct TaskEvent {
  TimeSec time = 0;
  std::int64_t job_id = 0;
  std::int64_t machine_id = -1;  ///< -1 when not placed
  std::int32_t task_index = 0;
  TaskEventType type = TaskEventType::kSubmit;
  std::uint8_t priority = 1;
};
static_assert(sizeof(TaskEvent) == 32, "TaskEvent layout changed");

/// Final per-task record (aggregated over its event history).
struct Task {
  std::int64_t job_id = 0;
  TimeSec submit_time = 0;
  TimeSec schedule_time = -1;    ///< -1: never scheduled
  TimeSec end_time = -1;         ///< -1: still active at trace end
  std::int64_t machine_id = -1;  ///< machine of last placement
  std::int32_t task_index = 0;
  std::int32_t resubmits = 0;  ///< times the task re-entered pending
  float cpu_request = 0.0f;    ///< normalized cores requested
  float mem_request = 0.0f;    ///< normalized memory requested
  float cpu_usage = 0.0f;      ///< mean observed usage while running
  float mem_usage = 0.0f;
  std::uint8_t priority = 1;
  TaskEventType end_event = TaskEventType::kFinish;

  /// Execution time (SCHEDULE -> terminal); 0 if never ran.
  TimeSec run_duration() const {
    if (schedule_time < 0 || end_time < 0) {
      return 0;
    }
    return end_time - schedule_time;
  }

  bool completed() const { return end_time >= 0; }
};
static_assert(sizeof(Task) == 72, "Task layout changed");

/// A task's identity, (job_id, task_index), of a Task or a TaskEvent.
/// finalize() keeps tasks in this order.
constexpr std::pair<std::int64_t, std::int32_t> task_key(const auto& record) {
  return {record.job_id, record.task_index};
}

/// Final per-job record.
struct Job {
  std::int64_t job_id = 0;
  std::int64_t user_id = 0;
  TimeSec submit_time = 0;
  TimeSec end_time = -1;  ///< completion of the last task; -1 if unfinished
  std::int32_t num_tasks = 1;
  /// Mean number of processors used simultaneously (Formula (4) of the
  /// paper: cumulative CPU time / wall-clock time). Grid jobs > 1.
  float cpu_parallelism = 1.0f;
  /// Mean memory used by the job, normalized (Cloud) or in MB (Grid —
  /// see TraceSet::memory_in_mb).
  float mem_usage = 0.0f;
  std::uint8_t priority = 1;

  /// Job length: submission to completion (the paper's definition).
  TimeSec length() const { return end_time < 0 ? -1 : end_time - submit_time; }

  bool completed() const { return end_time >= 0; }
};
static_assert(sizeof(Job) == 48, "Job layout changed");

/// Machine attribute bits for task placement constraints (the paper's
/// Section V cites Sharma et al.'s study of their utilization impact;
/// tasks "are submitted with a set of customized constraints").
enum MachineAttribute : std::uint8_t {
  kAttrLocalSsd = 1U << 0,     ///< fast local storage
  kAttrNewKernel = 1U << 1,    ///< recent kernel / runtime version
  kAttrExternalIp = 1U << 2,   ///< externally routable address
  kAttrHighMemNode = 1U << 3,  ///< large-memory platform
};

/// A machine and its normalized capacities.
struct Machine {
  std::int64_t machine_id = 0;
  float cpu_capacity = 1.0f;         ///< in {0.25, 0.5, 1.0} per Fig 7
  float mem_capacity = 1.0f;         ///< in {0.25, 0.5, 0.75, 1.0}
  float page_cache_capacity = 1.0f;  ///< uniform across machines
  std::uint8_t attributes = 0;       ///< MachineAttribute bitmask

  /// True when this machine satisfies a task's required attributes.
  bool satisfies(std::uint8_t required) const {
    return (attributes & required) == required;
  }
};

}  // namespace cgc::trace
