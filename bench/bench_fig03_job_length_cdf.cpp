// Regenerates Figure 3: CDF of job length, Google vs seven Grid/HPC
// systems.
//
// Paper claims: over 80% of Google jobs are shorter than 1000 s, while
// most Grid jobs exceed 2000 s.
#include <cstdio>
#include <vector>

#include "analysis/workload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

CGC_BENCH("fig03", cgc::bench::CaseKind::kFigure,
          "CDF of job length (Fig 3)") {
  using namespace cgc;
  // Pointers into the process-wide trace memo: no copies.
  std::vector<const trace::TraceSet*> traces;
  traces.push_back(&bench::google_workload(0.25));  // job-level stats are sampling-rate-invariant: share fig02/fig04's trace
  for (const char* name : {"AuverGrid", "NorduGrid", "SHARCNET", "ANL",
                           "RICC", "METACENTRUM", "LLNL-Atlas"}) {
    traces.push_back(&bench::grid_workload(name));
  }

  util::AsciiTable table(
      {"system", "median (s)", "P(<1000s)", "P(<2000s)", "P(<10000s)"});
  for (const trace::TraceSet* tp : traces) {
    const trace::TraceSet& t = *tp;
    const auto lengths = t.job_lengths();
    table.add_row({t.system_name(),
                   util::cell(stats::median(lengths), 4),
                   util::cell_pct(stats::fraction_below(lengths, 1000.0)),
                   util::cell_pct(stats::fraction_below(lengths, 2000.0)),
                   util::cell_pct(stats::fraction_below(lengths, 10000.0))});
  }
  std::printf("%s\n", table.render().c_str());

  const auto google_lengths = traces[0]->job_lengths();
  bench::print_comparison(
      "Google jobs under 1000 s", ">80%",
      util::cell_pct(stats::fraction_below(google_lengths, 1000.0)));
  double grids_over_2000 = 0.0;
  for (std::size_t i = 1; i < traces.size(); ++i) {
    const auto lengths = traces[i]->job_lengths();
    grids_over_2000 += 1.0 - stats::fraction_below(lengths, 2000.0);
  }
  bench::print_comparison(
      "Grid jobs over 2000 s (mean across systems)", "most (>50%)",
      util::cell_pct(grids_over_2000 / static_cast<double>(traces.size() - 1)));

  analysis::analyze_job_length_cdf(traces).write_dat(bench::out_dir());
  bench::print_series_note("fig03_<system>.dat, one CDF per system");
}
