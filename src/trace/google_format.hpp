// Reader/writer for Google clusterdata-2011-style trace tables.
//
// Implements the documented column layout of the public Google
// cluster-usage trace (the trace the paper analyzes):
//
//   task_events (13 columns):
//     time(us), missing_info, job_id, task_index, machine_id, event_type,
//     user, scheduling_class, priority(0-11), cpu_request, mem_request,
//     disk_request, different_machines
//   machine_events (6 columns):
//     time(us), machine_id, event_type(0=ADD,1=REMOVE,2=UPDATE),
//     platform_id, cpu_capacity, mem_capacity
//
// plus a derived per-machine usage table of our own (the public trace
// reports usage per task; the paper's host-load analyses aggregate to
// machines, so we persist the aggregated form):
//
//   host_usage (12 columns):
//     machine_id, time(s), cpu_low, cpu_mid, cpu_high, mem_low, mem_mid,
//     mem_high, mem_assigned, page_cache, running_tasks, pending_tasks
//
// Event codes follow the clusterdata format: 0 SUBMIT, 1 SCHEDULE,
// 2 EVICT, 3 FAIL, 4 FINISH, 5 KILL, 6 LOST, 7/8 UPDATE. Priorities in
// the file are 0-11 and are shifted to the paper's 1-12 in memory.
#pragma once

#include <string>

#include "trace/parse_report.hpp"
#include "trace/trace_set.hpp"

namespace cgc::trace {

/// The task_events row decoder: fills `*event` from one clusterdata
/// task_events record (at least 9 fields) and returns true. Throws
/// util::DataError on a malformed row, leaving `*event` unspecified.
/// The loader's task_events reader and cgcd's pipe both decode with it.
bool decode_task_event(Fields fields, TaskEvent* event);

namespace detail {
/// Reads the three tables back from `directory`; load_trace
/// (trace/loader.hpp), the one way to read a trace, calls it. Tasks and
/// jobs are reconstructed from the event stream via the task state
/// machine: each terminal event closes a task record; jobs aggregate
/// their tasks. Files that are absent are skipped (a workload-only
/// directory may have no host_usage.csv); `report` aggregates tolerant
/// damage across the three tables.
TraceSet read_google_trace_impl(const std::string& directory,
                                const std::string& system_name,
                                const ParseOptions& options,
                                ParseReport* report);
}  // namespace detail

// The writers below throw util::TransientError naming the path when a
// write fails (a full disk, for one).

/// Writes trace.events() in clusterdata task_events layout.
void write_task_events(const TraceSet& trace, const std::string& path);

/// Writes trace.machines() in clusterdata machine_events layout
/// (a single ADD event per machine at time 0).
void write_machine_events(const TraceSet& trace, const std::string& path);

/// Writes trace.host_load() in the host_usage layout.
void write_host_usage(const TraceSet& trace, const std::string& path);

/// Convenience: writes all three tables into `directory` as
/// task_events.csv, machine_events.csv, host_usage.csv.
void write_google_trace(const TraceSet& trace, const std::string& directory);

/// Reconstructs per-task and per-job records from an event stream.
/// Exposed separately so tests can exercise the state-machine
/// reconstruction logic directly. Events must be time-sorted.
void rebuild_tasks_and_jobs(TraceSet* trace);

}  // namespace cgc::trace
