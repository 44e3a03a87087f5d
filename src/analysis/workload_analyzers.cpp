#include "analysis/workload_analyzers.hpp"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "stats/fairness.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace cgc::analysis {

namespace {

/// Adds a named CDF series from a sample vector.
void add_cdf_series(Figure* fig, const std::string& name,
                    std::vector<double> sample, std::size_t max_points) {
  Series s;
  s.name = name;
  s.column_names = {"x", "cdf"};
  if (sample.empty()) {
    fig->series.push_back(std::move(s));
    return;
  }
  const stats::Ecdf ecdf(std::move(sample));
  for (const auto& [x, f] : ecdf.plot_points(max_points)) {
    s.add_row({x, f});
  }
  fig->series.push_back(std::move(s));
}

}  // namespace

std::int64_t PriorityHistogram::jobs_in_band(trace::PriorityBand band) const {
  std::int64_t total = 0;
  for (int p = 1; p <= trace::kNumPriorities; ++p) {
    if (trace::band_of(p) == band) {
      total += jobs[static_cast<std::size_t>(p - 1)];
    }
  }
  return total;
}

Figure PriorityHistogram::to_figure() const {
  Figure fig;
  fig.id = "fig02";
  fig.title = "Number of jobs/tasks per priority (Fig 2)";
  Series s;
  s.name = "priority_counts";
  s.column_names = {"priority", "jobs", "tasks"};
  for (int p = 1; p <= trace::kNumPriorities; ++p) {
    s.add_row({static_cast<double>(p),
               static_cast<double>(jobs[static_cast<std::size_t>(p - 1)]),
               static_cast<double>(tasks[static_cast<std::size_t>(p - 1)])});
  }
  fig.series.push_back(std::move(s));
  return fig;
}

PriorityHistogram analyze_priorities(const trace::TraceSet& trace) {
  PriorityHistogram hist;
  for (const trace::Job& j : trace.jobs()) {
    ++hist.jobs[static_cast<std::size_t>(j.priority - 1)];
  }
  // Task counts fan out across shards (task arrays are large); the
  // ordered reduce sums integer partials, so the merge order is moot
  // but the exec contract keeps it deterministic anyway.
  const auto tasks = trace.tasks();
  using Counts = std::array<std::int64_t, trace::kNumPriorities>;
  const Counts task_counts = exec::parallel_reduce(
      0, tasks.size(), Counts{},
      [&](std::size_t lo, std::size_t hi) {
        Counts local{};
        for (std::size_t i = lo; i < hi; ++i) {
          ++local[static_cast<std::size_t>(tasks[i].priority - 1)];
        }
        return local;
      },
      [](Counts& acc, Counts&& part) {
        for (std::size_t p = 0; p < part.size(); ++p) {
          acc[p] += part[p];
        }
      });
  for (std::size_t p = 0; p < task_counts.size(); ++p) {
    hist.tasks[p] += task_counts[p];
  }
  return hist;
}

Figure analyze_job_length_cdf(
    std::span<const trace::TraceSet* const> traces, std::size_t max_points) {
  Figure fig;
  fig.id = "fig03";
  fig.title = "CDF of job length, Cloud vs Grid (Fig 3)";
  for (const trace::TraceSet* t : traces) {
    add_cdf_series(&fig, t->system_name(), t->job_lengths(), max_points);
  }
  return fig;
}

MassCountReport analyze_task_length_mass_count(const trace::TraceSet& trace) {
  MassCountReport report;
  report.system = trace.system_name();
  std::vector<double> durations = trace.task_run_durations();
  // Zero-length tasks carry no mass and break the positivity requirement.
  std::erase_if(durations, [](double d) { return d <= 0.0; });
  CGC_CHECK_MSG(!durations.empty(), "no completed tasks in " + report.system);
  report.result = stats::mass_count_disparity(durations);
  const auto summary =
      stats::summarize(std::span<const double>(durations));
  report.mean = summary.mean();
  report.max = summary.max();

  report.figure.id = "fig04_" + sanitize_name(report.system);
  report.figure.title =
      "Mass-count disparity of task lengths — " + report.system + " (Fig 4)";
  Series s;
  s.name = "mass_count";
  s.column_names = {"length_s", "count_cdf", "mass_cdf"};
  for (const auto& row : stats::mass_count_plot(durations)) {
    s.add_row({row[0], row[1], row[2]});
  }
  report.figure.series.push_back(std::move(s));
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "joint ratio=%.0f/%.0f mm-distance=%.3g s (%.3g days)",
                report.result.joint_ratio_mass,
                report.result.joint_ratio_count, report.result.mm_distance,
                report.result.mm_distance / 86400.0);
  report.figure.annotations.push_back(buf);
  return report;
}

Figure analyze_submission_interval_cdf(
    std::span<const trace::TraceSet* const> traces, std::size_t max_points) {
  Figure fig;
  fig.id = "fig05";
  fig.title = "CDF of job submission interval (Fig 5)";
  for (const trace::TraceSet* t : traces) {
    add_cdf_series(&fig, t->system_name(), t->submission_intervals(),
                   max_points);
  }
  return fig;
}

SubmissionStats analyze_submission_stats(const trace::TraceSet& trace) {
  SubmissionStats stats;
  stats.system = trace.system_name();
  const std::vector<double> hourly = trace.jobs_per_hour();
  CGC_CHECK_MSG(!hourly.empty(), "empty hourly counts");
  const auto summary = stats::summarize(std::span<const double>(hourly));
  stats.max_per_hour = summary.max();
  stats.avg_per_hour = summary.mean();
  stats.min_per_hour = summary.min();
  stats.fairness = stats::jain_fairness(hourly);
  return stats;
}

std::string render_submission_table(std::span<const SubmissionStats> rows) {
  util::AsciiTable table({"system", "max #/h", "avg #/h", "min #/h",
                          "fairness"});
  table.set_caption("Table I: the number of jobs submitted per hour");
  for (const SubmissionStats& r : rows) {
    table.add_row({r.system, util::cell(r.max_per_hour, 5),
                   util::cell(r.avg_per_hour, 4),
                   util::cell(r.min_per_hour, 3),
                   util::cell(r.fairness, 2)});
  }
  return table.render();
}

Figure analyze_job_cpu_usage_cdf(
    std::span<const trace::TraceSet* const> traces, std::size_t max_points) {
  Figure fig;
  fig.id = "fig06a";
  fig.title = "CDF of per-job CPU usage over all processors (Fig 6a)";
  for (const trace::TraceSet* t : traces) {
    add_cdf_series(&fig, t->system_name(), t->job_cpu_usage(), max_points);
  }
  return fig;
}

Figure analyze_job_mem_usage_cdf(
    std::span<const trace::TraceSet* const> traces,
    std::span<const double> cloud_capacity_gb, std::size_t max_points) {
  Figure fig;
  fig.id = "fig06b";
  fig.title = "CDF of per-job memory usage in MB (Fig 6b)";
  for (const trace::TraceSet* t : traces) {
    if (t->memory_in_mb()) {
      add_cdf_series(&fig, t->system_name(), t->job_mem_usage(), max_points);
    } else {
      // Normalized Cloud memory: expand under each what-if capacity.
      for (const double gb : cloud_capacity_gb) {
        char label[128];
        std::snprintf(label, sizeof(label), "%s (MaxCap=%.0fGB)",
                      t->system_name().c_str(), gb);
        add_cdf_series(&fig, label, t->job_mem_usage(gb), max_points);
      }
    }
  }
  return fig;
}

}  // namespace cgc::analysis
