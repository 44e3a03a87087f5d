// Work-load analyzers: Section III of the paper (jobs and tasks).
//
// Each function consumes one or more TraceSets and produces the data
// behind one paper artifact:
//   Fig 2   priority histogram                -> PriorityHistogram
//   Fig 3   job-length CDF comparison          -> Figure (one CDF/system)
//   Fig 4   task-length mass-count disparity   -> MassCountReport
//   Fig 5   submission-interval CDF comparison -> Figure
//   Table I jobs/hour max/avg/min + fairness   -> SubmissionStats
//   Fig 6   per-job CPU / memory usage CDFs    -> Figure
#pragma once

#include <span>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "stats/mass_count.hpp"
#include "trace/trace_set.hpp"

namespace cgc::analysis {

// ---- Fig 2 -----------------------------------------------------------------
struct PriorityHistogram {
  std::array<std::int64_t, trace::kNumPriorities> jobs{};
  std::array<std::int64_t, trace::kNumPriorities> tasks{};

  std::int64_t jobs_in_band(trace::PriorityBand band) const;
  Figure to_figure() const;
};

/// Counts jobs and tasks per priority (parallelized over tasks).
PriorityHistogram analyze_priorities(const trace::TraceSet& trace);

// ---- Fig 3 -----------------------------------------------------------------
/// CDF of completed-job lengths for each trace, on a common grid.
Figure analyze_job_length_cdf(
    std::span<const trace::TraceSet* const> traces,
    std::size_t max_points = 400);

// ---- Fig 4 -----------------------------------------------------------------
struct MassCountReport {
  std::string system;
  stats::MassCountResult result;
  double mean = 0.0;
  double max = 0.0;
  Figure figure;  ///< count + mass curves
};

/// Mass-count disparity of task run durations (execution times).
MassCountReport analyze_task_length_mass_count(const trace::TraceSet& trace);

// ---- Fig 5 -----------------------------------------------------------------
/// CDF of job submission inter-arrival gaps per system.
Figure analyze_submission_interval_cdf(
    std::span<const trace::TraceSet* const> traces,
    std::size_t max_points = 400);

// ---- Table I ----------------------------------------------------------------
struct SubmissionStats {
  std::string system;
  double max_per_hour = 0.0;
  double avg_per_hour = 0.0;
  double min_per_hour = 0.0;
  double fairness = 0.0;  ///< Jain fairness of hourly counts
};

SubmissionStats analyze_submission_stats(const trace::TraceSet& trace);

/// Renders Table I for a set of systems.
std::string render_submission_table(std::span<const SubmissionStats> rows);

// ---- Fig 6 -----------------------------------------------------------------
/// CDF of per-job CPU usage (Formula (4)) per system.
Figure analyze_job_cpu_usage_cdf(
    std::span<const trace::TraceSet* const> traces,
    std::size_t max_points = 400);

/// CDF of per-job memory usage (MB). Cloud traces with normalized memory
/// are expanded under the given what-if node capacities (the paper's
/// 32 GB / 64 GB curves).
Figure analyze_job_mem_usage_cdf(
    std::span<const trace::TraceSet* const> traces,
    std::span<const double> cloud_capacity_gb,
    std::size_t max_points = 400);

}  // namespace cgc::analysis
