// Regenerates Figure 5: CDF of the job submission interval, Google vs
// Grid systems.
//
// Paper claim: Google's intervals are much shorter — the Google CDF
// saturates within seconds while Grid CDFs stretch to thousands of
// seconds.
#include <vector>

#include "analysis/workload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "stats/descriptive.hpp"
#include "util/table.hpp"

CGC_BENCH("fig05", cgc::bench::CaseKind::kFigure,
          "CDF of submission interval (Fig 5)") {
  using namespace cgc;
  // Pointers into the process-wide trace memo: no copies.
  std::vector<const trace::TraceSet*> traces;
  traces.push_back(&bench::google_workload(0.25));  // job-level stats are sampling-rate-invariant: share fig02/fig04's trace
  for (const char* name : {"AuverGrid", "NorduGrid", "SHARCNET", "ANL",
                           "RICC", "METACENTRUM", "LLNL-Atlas"}) {
    traces.push_back(&bench::grid_workload(name));
  }

  util::AsciiTable table({"system", "median interval (s)",
                          "mean interval (s)", "P(<60s)"});
  for (const trace::TraceSet* tp : traces) {
    const trace::TraceSet& t = *tp;
    const auto intervals = t.submission_intervals();
    const auto summary =
        stats::summarize(std::span<const double>(intervals));
    table.add_row({t.system_name(), util::cell(stats::median(intervals), 4),
                   util::cell(summary.mean(), 4),
                   util::cell_pct(stats::fraction_below(intervals, 60.0))});
  }
  bench::print("%s\n", table.render().c_str());

  const auto google_intervals = traces[0]->submission_intervals();
  bench::print_comparison("Google mean interval (s)",
                          "~6.5 (552/hour)",
                          util::cell(stats::summarize(std::span<const double>(
                                         google_intervals)).mean(), 3));
  // Bursty Grids can have tiny *median* gaps (most jobs arrive inside a
  // burst), so the Fig 5 ordering claim is checked on mean intervals.
  bench::print_comparison(
      "Google mean interval < every Grid system's", "yes",
      [&] {
        const double google_mean =
            stats::summarize(std::span<const double>(google_intervals))
                .mean();
        for (std::size_t i = 1; i < traces.size(); ++i) {
          const auto grid = traces[i]->submission_intervals();
          if (google_mean >=
              stats::summarize(std::span<const double>(grid)).mean()) {
            return std::string("NO");
          }
        }
        return std::string("yes");
      }());

  bench::write_dat(analysis::analyze_submission_interval_cdf(traces));
  bench::print_series_note("fig05_<system>.dat");
}
