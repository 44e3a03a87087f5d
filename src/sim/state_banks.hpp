// Struct-of-arrays state banks for the simulator hot loop.
//
// The seed simulator kept one TaskRun struct per task (with a pointer
// chase to its TaskSpec) and one MachineState per machine whose
// `running` list stored 8-byte task indices — every sample of a machine
// touched a scattered TaskRun + TaskSpec pair per running task, and
// every eviction did a linear std::find + middle erase. At paper scale
// (~400k concurrently running tasks sampled every simulated 5 minutes)
// that pointer-chasing dominates the run.
//
// The banks below split task state by access pattern:
//
//   * TaskBank — per-task dynamic state as parallel arrays indexed by
//     the task's workload slot. The event handlers touch exactly the
//     arrays they need; nothing else is pulled into cache. Times are
//     32-bit (BankTime) and the five arrays that only feed per-task
//     records exist only under SimConfig::record_tasks: 37 bytes per
//     task hot, 17 more when recording.
//   * TaskStatic — the per-task constants the scheduler and sampler
//     read (requests, mean usage, priority/band, constraint bits),
//     packed to 24 bytes; built once from the workload, after which the
//     hot loop never dereferences a TaskSpec.
//   * MachineBank — per-machine capacities/assignments as arrays, plus
//     one dense RunEntry vector per machine: each entry carries every
//     field the sampler needs, so sampling a machine is one linear scan
//     over ~28-byte entries. Removal is O(1) swap-remove, with
//     TaskBank::pos_in_machine tracking each running task's position.
//   * PendingQueues — the 12 FCFS priority queues as intrusive singly
//     linked lists threaded through TaskBank::next_pending: push/pop
//     are pointer writes into arrays already in cache, replacing the
//     seed's 12 std::deques and their node churn.
//
// All mutation happens on the serial event spine; the one parallel
// region inside the run (host-load sampling) only reads. Allocation
// happens once, up front — the steady-state event loop performs no
// heap traffic except amortized growth of per-machine run lists and
// calendar buckets (host-load series are reserved to the run's sample
// count before the loop).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/task_spec.hpp"
#include "trace/types.hpp"
#include "util/check.hpp"

namespace cgc::sim {

/// Per-task constants read by the scheduler and sampler (see file
/// comment). One entry per workload slot, immutable after construction.
struct TaskStatic {
  /// Requested CPU (normalized cores), copied from the spec.
  float cpu_request = 0.0f;
  /// Requested memory (normalized), copied from the spec.
  float mem_request = 0.0f;
  /// Mean CPU actually consumed while running: request * usage_ratio,
  /// precomputed so the sampler multiplies jitter factors only.
  float cpu_usage = 0.0f;
  /// Mean memory consumed while running: request * usage_ratio.
  float mem_usage = 0.0f;
  /// Page-cache footprint while running.
  float page_cache = 0.0f;
  /// Scheduling priority 1..12.
  std::uint8_t priority = 1;
  /// Priority band (trace::band_of(priority)), precomputed.
  std::uint8_t band = 0;
  /// Required machine attribute bits (placement constraint).
  std::uint8_t required_attributes = 0;
  /// kFlag* bits below.
  std::uint8_t flags = 0;

  /// flags bit: the task re-enters pending after an abnormal end.
  static constexpr std::uint8_t kFlagResubmit = 1U << 0;
  /// flags bit: the spec scripts an abnormal fate (fail/kill/lost).
  static constexpr std::uint8_t kFlagHasFate = 1U << 1;
};

/// A simulated time as the task bank stores it. Every time the bank
/// holds lies in [queue origin, horizon) and every duration is bounded
/// by a spec's `duration` or `abnormal_after`; ClusterSim refuses specs
/// and horizons outside the 32-bit range, so halving the width is exact.
using BankTime = std::int32_t;

/// Per-task dynamic state, parallel arrays indexed by workload slot.
/// Field semantics match the seed simulator's TaskRun (the state
/// machine and generation rule are unchanged); see DESIGN.md §13.
///
/// The first ten arrays are hot: every run allocates them and the event
/// handlers read them, 37 bytes per task. The last five are
/// record-only: they feed nothing but the per-task records
/// materialized under SimConfig::record_tasks, so they are allocated
/// (17 bytes per task) and written only when that knob is on.
struct TaskBank {
  /// Work left until FINISH (decremented as run time accumulates).
  std::vector<BankTime> remaining;
  /// Run time left until the scripted fate fires in the current
  /// attempt; <0 when no fate applies (or it has been consumed).
  std::vector<BankTime> fate_remaining;
  /// While pending: the time the pending stint began (queue-wait
  /// accounting for SimStats::record_wait, which only sees stints that
  /// began at t >= 0). While running: the start of the attempt. A task
  /// is never pending and running at once, so one array holds both;
  /// the value is meaningless in any other state.
  std::vector<BankTime> since;
  /// First SUBMIT time; -1 until submitted. Hot: it gates the
  /// first-submit accounting (SimStats::submitted, fate arming) and the
  /// horizon counts.
  std::vector<BankTime> first_submit;
  /// Attempt generation: bumped on every eviction and end so queued end
  /// events of aborted attempts are recognized as stale and dropped.
  std::vector<std::uint32_t> generation;
  /// Machine index while running; -1 otherwise.
  std::vector<std::int32_t> machine;
  /// Position in the machine's RunEntry vector (swap-remove fixup).
  std::vector<std::uint32_t> pos_in_machine;
  /// Intrusive pending-FIFO link: next task slot, -1 = tail.
  std::vector<std::int32_t> next_pending;
  /// trace::TaskState, stored as its underlying byte.
  std::vector<std::uint8_t> state;
  /// Resubmissions left before a fail-fate is allowed to finish.
  std::vector<std::int32_t> resubmits_left;

  // Record-only (empty unless SimConfig::record_tasks).
  /// First SCHEDULE time; -1 until first placed.
  std::vector<BankTime> first_schedule;
  /// Terminal event time; -1 while the task's story continues.
  std::vector<BankTime> end_time;
  /// Terminal event type (valid when end_time >= 0).
  std::vector<std::uint8_t> end_event;
  /// Times the task re-entered pending (evictions + fail retries).
  std::vector<std::int32_t> resubmit_count;
  /// Machine index of the last placement; -1 = never placed.
  std::vector<std::int32_t> last_machine;

  /// Sizes the hot arrays, and the record-only ones when `record`, for
  /// `n` tasks with the seed-equivalent initial values (one allocation
  /// per array, up front).
  void resize(std::size_t n, bool record) {
    remaining.resize(n, 0);
    fate_remaining.resize(n, -1);
    since.resize(n, -1);
    first_submit.resize(n, -1);
    generation.resize(n, 0);
    machine.resize(n, -1);
    pos_in_machine.resize(n, 0);
    next_pending.resize(n, -1);
    state.resize(n, static_cast<std::uint8_t>(trace::TaskState::kUnsubmitted));
    resubmits_left.resize(n, 0);
    if (!record) {
      return;
    }
    first_schedule.resize(n, -1);
    end_time.resize(n, -1);
    end_event.resize(n,
                     static_cast<std::uint8_t>(trace::TaskEventType::kFinish));
    resubmit_count.resize(n, 0);
    last_machine.resize(n, -1);
  }
};

/// One running task on a machine: everything the sampler and eviction
/// scans need, dense in the machine's run list (~28 bytes).
struct RunEntry {
  /// Task slot (index into TaskBank / the workload).
  std::uint32_t task = 0;
  /// Requested CPU — subtracted on hypothetical-eviction fit checks.
  float cpu_request = 0.0f;
  /// Requested memory.
  float mem_request = 0.0f;
  /// Mean CPU consumed (TaskStatic::cpu_usage), read every sample.
  float cpu_usage = 0.0f;
  /// Mean memory consumed.
  float mem_usage = 0.0f;
  /// Page-cache footprint.
  float page_cache = 0.0f;
  /// Priority 1..12 — eviction victim ordering.
  std::uint8_t priority = 1;
  /// Priority band — the sampler's accumulation index.
  std::uint8_t band = 0;
};

/// Per-machine state as parallel arrays plus dense run lists.
struct MachineBank {
  /// CPU capacity (normalized; same scale as trace::Machine).
  std::vector<float> cpu_capacity;
  /// Memory capacity (normalized).
  std::vector<float> mem_capacity;
  /// Page-cache capacity (sampler clamp).
  std::vector<float> page_cache_capacity;
  /// Sum of CPU requests of running tasks (admission bookkeeping).
  std::vector<double> cpu_assigned;
  /// Sum of memory requests of running tasks.
  std::vector<double> mem_assigned;
  /// Machine attribute bits (constraint matching).
  std::vector<std::uint8_t> attributes;
  /// External machine id (trace-facing).
  std::vector<std::int64_t> machine_id;
  /// Dense run list per machine; order is maintenance order (swap-
  /// remove), deterministic because all mutation is on the serial spine.
  std::vector<std::vector<RunEntry>> running;

  /// Number of machines.
  std::size_t size() const { return machine_id.size(); }

  /// Builds the bank from trace::Machine records (validates capacities,
  /// like the seed constructor did).
  void init(const std::vector<trace::Machine>& machines) {
    const std::size_t n = machines.size();
    cpu_capacity.reserve(n);
    mem_capacity.reserve(n);
    page_cache_capacity.reserve(n);
    attributes.reserve(n);
    machine_id.reserve(n);
    for (const trace::Machine& m : machines) {
      CGC_CHECK_MSG(m.cpu_capacity > 0 && m.mem_capacity > 0,
                    "machine capacities must be positive");
      cpu_capacity.push_back(m.cpu_capacity);
      mem_capacity.push_back(m.mem_capacity);
      page_cache_capacity.push_back(m.page_cache_capacity);
      attributes.push_back(m.attributes);
      machine_id.push_back(m.machine_id);
    }
    cpu_assigned.assign(n, 0.0);
    mem_assigned.assign(n, 0.0);
    running.resize(n);
  }
};

/// The 12 FCFS priority queues as intrusive lists through
/// TaskBank::next_pending. Index 0 = priority 1.
struct PendingQueues {
  /// Head task slot per priority; -1 = empty.
  std::int32_t head[trace::kNumPriorities];
  /// Tail task slot per priority; -1 = empty.
  std::int32_t tail[trace::kNumPriorities];
  /// Total pending tasks across all priorities.
  std::int64_t total = 0;

  /// Starts with every priority queue empty.
  PendingQueues() {
    for (int p = 0; p < trace::kNumPriorities; ++p) {
      head[p] = tail[p] = -1;
    }
  }

  /// Appends `task` to its priority's FIFO (priority is 1-based).
  void push(TaskBank& tasks, int priority, std::int32_t task) {
    const int p = priority - 1;
    tasks.next_pending[static_cast<std::size_t>(task)] = -1;
    if (tail[p] < 0) {
      head[p] = tail[p] = task;
    } else {
      tasks.next_pending[static_cast<std::size_t>(tail[p])] = task;
      tail[p] = task;
    }
    ++total;
  }
};

}  // namespace cgc::sim
