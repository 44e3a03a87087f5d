// Regenerates Figure 6: CDFs of per-job CPU usage (Formula (4)) and
// memory usage, Google vs AuverGrid / SHARCNET / DAS-2, with the 32 GB
// and 64 GB what-if expansions of Google's normalized memory.
//
// Paper claims: Google jobs mostly need at most one processor and use
// little memory; Grid jobs are parallel and memory-heavier.
#include <cstdio>
#include <vector>

#include "analysis/workload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

CGC_BENCH("fig06", cgc::bench::CaseKind::kFigure,
          "Per-job CPU & memory usage (Fig 6)") {
  using namespace cgc;
  // Pointers into the process-wide trace memo: no copies.
  std::vector<const trace::TraceSet*> traces;
  traces.push_back(&bench::google_workload(0.25));  // job-level stats are sampling-rate-invariant: share fig02/fig04's trace
  traces.push_back(&bench::grid_workload("AuverGrid"));
  traces.push_back(&bench::grid_workload("SHARCNET"));
  traces.push_back(&bench::grid_workload("DAS-2"));

  util::AsciiTable cpu_table(
      {"system", "median CPU usage", "P(<=1 proc)", "P(<=4 procs)"});
  for (const trace::TraceSet* tp : traces) {
    const trace::TraceSet& t = *tp;
    const auto cpu = t.job_cpu_usage();
    cpu_table.add_row({t.system_name(), util::cell(stats::median(cpu), 3),
                       util::cell_pct(stats::fraction_below(cpu, 1.0001)),
                       util::cell_pct(stats::fraction_below(cpu, 4.0001))});
  }
  std::printf("%s\n", cpu_table.render().c_str());

  util::AsciiTable mem_table({"system", "median mem (MB)", "P(<200MB)",
                              "P(<1000MB)"});
  for (const trace::TraceSet* tp : traces) {
    const trace::TraceSet& t = *tp;
    // 32 GB what-if for the normalized Cloud values.
    const auto mem = t.job_mem_usage(32.0);
    mem_table.add_row({t.system_name() +
                           (t.memory_in_mb() ? "" : " (MaxCap=32GB)"),
                       util::cell(stats::median(mem), 4),
                       util::cell_pct(stats::fraction_below(mem, 200.0)),
                       util::cell_pct(stats::fraction_below(mem, 1000.0))});
  }
  std::printf("%s\n", mem_table.render().c_str());

  const auto google_cpu = traces[0]->job_cpu_usage();
  bench::print_comparison("Google jobs needing <= 1 processor",
                          "large majority",
                          util::cell_pct(stats::fraction_below(
                              google_cpu, 1.0001)));
  const auto google_mem = traces[0]->job_mem_usage(32.0);
  const auto sharcnet_mem = traces[2]->job_mem_usage();
  bench::print_comparison(
      "Google median mem < SHARCNET median mem", "yes",
      stats::median(google_mem) < stats::median(sharcnet_mem) ? "yes"
                                                              : "NO");

  analysis::analyze_job_cpu_usage_cdf(traces).write_dat(bench::out_dir());
  const double caps[] = {32.0, 64.0};
  analysis::analyze_job_mem_usage_cdf(traces, caps)
      .write_dat(bench::out_dir());
  bench::print_series_note("fig06a_*.dat / fig06b_*.dat");
}
