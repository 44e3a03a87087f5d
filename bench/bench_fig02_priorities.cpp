// Regenerates Figure 2: the number of jobs and tasks per priority.
//
// Paper reference values (job counts, labeled bars of Fig 2a):
//   p1 16e4, p2 11.3e4, p3 17e4, p4 13e4, p5 0.9e4, p6 4e4, p7 4.7e4;
// priorities cluster into low (1-4), mid (5-8), high (9-12).
#include "analysis/workload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "gen/calibration.hpp"
#include "util/table.hpp"

CGC_BENCH("fig02", cgc::bench::CaseKind::kFigure,
          "Number of jobs/tasks per priority (Fig 2)") {
  using namespace cgc;
  const trace::TraceSet& trace = bench::google_workload(0.25);  // shared with fig04
  const analysis::PriorityHistogram hist =
      analysis::analyze_priorities(trace);

  util::AsciiTable table({"priority", "jobs", "jobs share", "tasks",
                          "tasks share", "paper share (jobs)"});
  double weight_total = 0.0;
  for (const double w : gen::paper::kJobPriorityWeights) {
    weight_total += w;
  }
  const auto total_jobs = static_cast<double>(trace.jobs().size());
  const auto total_tasks = static_cast<double>(trace.tasks().size());
  for (int p = 0; p < trace::kNumPriorities; ++p) {
    const auto jobs = hist.jobs[static_cast<std::size_t>(p)];
    const auto tasks = hist.tasks[static_cast<std::size_t>(p)];
    table.add_row(
        {std::to_string(p + 1), util::cell_int(jobs),
         util::cell_pct(static_cast<double>(jobs) / total_jobs),
         util::cell_int(tasks),
         util::cell_pct(static_cast<double>(tasks) / total_tasks),
         util::cell_pct(gen::paper::kJobPriorityWeights[
                            static_cast<std::size_t>(p)] /
                        weight_total)});
  }
  bench::print("%s\n", table.render().c_str());

  const double low_share =
      static_cast<double>(hist.jobs_in_band(trace::PriorityBand::kLow)) /
      total_jobs;
  const double mid_share =
      static_cast<double>(hist.jobs_in_band(trace::PriorityBand::kMid)) /
      total_jobs;
  const double high_share =
      static_cast<double>(hist.jobs_in_band(trace::PriorityBand::kHigh)) /
      total_jobs;
  bench::print_comparison("low band (1-4) job share",
                          "dominant (~85%)", util::cell_pct(low_share));
  bench::print_comparison("mid band (5-8) job share", "~14%",
                          util::cell_pct(mid_share));
  bench::print_comparison("high band (9-12) job share", "small (~1%)",
                          util::cell_pct(high_share));

  bench::write_dat(hist.to_figure());
  bench::print_series_note("fig02_priority_counts.dat");
}
