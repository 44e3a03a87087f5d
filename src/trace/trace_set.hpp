// TraceSet: an in-memory trace — jobs, tasks, events, machines, and
// host-load series — plus the indices and summary statistics the
// analyzers need.
//
// A TraceSet is produced either by a generator + simulator run or by
// parsing files (Google-style CSV, SWF, GWA). Workload-only traces
// (Grid archives) simply have empty machines/host_load.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/host_load.hpp"
#include "trace/types.hpp"

namespace cgc::trace {

/// Aggregate counts used in logs and reports.
struct TraceSummary {
  std::size_t num_jobs = 0;
  std::size_t num_tasks = 0;
  std::size_t num_events = 0;
  std::size_t num_machines = 0;
  std::size_t num_samples = 0;
  TimeSec duration = 0;
  double abnormal_completion_fraction = 0.0;  ///< among terminal events
};

class TraceSet {
 public:
  TraceSet() = default;
  explicit TraceSet(std::string system_name) : system_name_(std::move(system_name)) {}

  // -- identity ------------------------------------------------------------
  const std::string& system_name() const { return system_name_; }
  void set_system_name(std::string name) { system_name_ = std::move(name); }
  /// Trace window length in seconds.
  TimeSec duration() const { return duration_; }
  void set_duration(TimeSec d) { duration_ = d; }
  /// True when Job::mem_usage is in MB (Grid archives) rather than
  /// normalized units (Cloud traces).
  bool memory_in_mb() const { return memory_in_mb_; }
  void set_memory_in_mb(bool v) { memory_in_mb_ = v; }

  // -- mutation (builders/parsers) -----------------------------------------
  void add_machine(Machine machine);
  void add_job(Job job);
  void add_task(Task task);
  void add_event(TaskEvent event);
  void add_host_load(HostLoadSeries series);
  void reserve_jobs(std::size_t n) { jobs_.reserve(n); }
  void reserve_tasks(std::size_t n) { tasks_.reserve(n); }
  void reserve_events(std::size_t n) { events_.reserve(n); }

  /// Bulk adoption: replaces a section wholesale (no per-record copy).
  /// Used by the columnar store reader, which decodes whole sections at
  /// once. finalize() must still be called afterwards.
  void adopt_jobs(std::vector<Job> jobs);
  void adopt_tasks(std::vector<Task> tasks);
  void adopt_events(std::vector<TaskEvent> events);
  void adopt_machines(std::vector<Machine> machines);
  void adopt_host_load(std::vector<HostLoadSeries> series);

  /// Sorts events by time, tasks by (job, index), and builds lookup
  /// indices. Must be called after bulk mutation, before queries below.
  void finalize();

  // -- access ---------------------------------------------------------------
  std::span<const Machine> machines() const { return machines_; }
  std::span<const Job> jobs() const { return jobs_; }
  std::span<const Task> tasks() const { return tasks_; }
  std::span<const TaskEvent> events() const { return events_; }
  std::span<const HostLoadSeries> host_load() const { return host_load_; }

  /// Machine record by id; nullopt if unknown.
  std::optional<Machine> machine_by_id(std::int64_t machine_id) const;
  /// Host-load series for a machine id; nullptr if absent.
  const HostLoadSeries* host_load_for(std::int64_t machine_id) const;
  /// Tasks belonging to a job (contiguous after finalize(); found by
  /// binary search, O(log tasks)).
  std::span<const Task> tasks_for_job(std::int64_t job_id) const;

  TraceSummary summary() const;

  /// Order-sensitive FNV-1a digest over every record and sample in the
  /// set (float/double fields hashed by bit pattern). Two TraceSets have
  /// equal digests iff their contents are byte-identical — the equality
  /// check behind the simulator's CGC_THREADS determinism contract
  /// (tests/sim_determinism_test.cpp, `bench_perf sim`).
  std::uint64_t content_digest() const;

  // -- derived sample vectors (used by many analyzers) ----------------------
  /// Lengths (seconds) of completed jobs.
  std::vector<double> job_lengths() const;
  /// Run durations (seconds) of tasks that were scheduled and ended.
  std::vector<double> task_run_durations() const;
  /// Sorted submission times of jobs.
  std::vector<double> job_submit_times() const;
  /// Inter-arrival gaps between consecutive job submissions.
  std::vector<double> submission_intervals() const;
  /// Per-hour job submission counts over the trace window.
  std::vector<double> jobs_per_hour() const;
  /// Per-job CPU parallelism (Formula (4)).
  std::vector<double> job_cpu_usage() const;
  /// Per-job memory usage, optionally scaled by a max capacity in GB
  /// (the paper's 32/64 GB what-if for normalized Cloud values).
  std::vector<double> job_mem_usage(double max_capacity_gb = 0.0) const;

 private:
  std::string system_name_;
  TimeSec duration_ = 0;
  bool memory_in_mb_ = false;
  bool finalized_ = false;

  std::vector<Machine> machines_;
  std::vector<Job> jobs_;
  std::vector<Task> tasks_;
  std::vector<TaskEvent> events_;
  std::vector<HostLoadSeries> host_load_;

  std::unordered_map<std::int64_t, std::size_t> machine_index_;
  std::unordered_map<std::int64_t, std::size_t> host_load_index_;

  void require_finalized() const;
};

}  // namespace cgc::trace
