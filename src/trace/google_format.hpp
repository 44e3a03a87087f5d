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
// and a one-row table of our own for the trace window, which no event
// records (the last event falls short of the window's end):
//
//   trace_window (1 column): window length(us)
//
// A directory without trace_window.csv (a real trace) takes its window
// from its last event or job end, as TraceSet::finalize() does.
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
/// Reads the tables back from `directory`; load_trace
/// (trace/loader.hpp), the one way to read a trace, calls it. Tasks and
/// jobs are rebuilt from the events (replay_tasks, then roll_up_jobs;
/// trace/lifecycle.hpp), with one warning counting the events the
/// transition table refused. Files that are absent are skipped (a
/// workload-only directory may have no host_usage.csv); `report`
/// aggregates tolerant damage across the tables.
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

/// Writes trace.duration() in the trace_window layout.
void write_trace_window(const TraceSet& trace, const std::string& path);

/// Convenience: writes all four tables into `directory` as
/// task_events.csv, machine_events.csv, host_usage.csv and
/// trace_window.csv.
void write_google_trace(const TraceSet& trace, const std::string& directory);

}  // namespace cgc::trace
