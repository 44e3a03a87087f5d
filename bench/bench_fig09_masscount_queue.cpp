// Regenerates Figure 9: mass-count disparity of the durations in which
// the running-queue state (bucketed running-task count) is unchanged.
//
// Paper reference values: buckets [10,19]..[30,39] follow roughly the
// 10/90 rule with mm-distances 972/845/820 minutes; [40,49] is choppier
// (16/84, mm-distance 370 min).
#include <cstdio>

#include "analysis/hostload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "util/table.hpp"

CGC_BENCH("fig09", cgc::bench::CaseKind::kFigure,
          "Mass-count of unchanged queuing-state durations (Fig 9)") {
  using namespace cgc;
  const trace::TraceSet& trace = bench::google_hostload();
  const analysis::QueueRunMassCount result =
      analysis::analyze_queue_run_mass_count(trace);

  util::AsciiTable table({"running interval", "#runs", "joint ratio",
                          "mm-distance (min)"});
  for (const auto& b : result.buckets) {
    if (b.num_runs < 10) {
      continue;
    }
    char interval[32];
    if (b.hi < 0) {
      std::snprintf(interval, sizeof(interval), "[%d,inf)", b.lo);
    } else {
      std::snprintf(interval, sizeof(interval), "[%d,%d]", b.lo, b.hi);
    }
    table.add_row({interval,
                   util::cell_int(static_cast<long long>(b.num_runs)),
                   util::cell_ratio(b.mass_count.joint_ratio_mass,
                                    b.mass_count.joint_ratio_count),
                   util::cell(b.mass_count.mm_distance, 4)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("paper (Fig 9): [10,19] 11/89 @972min, [20,29] 12/88 @845min,"
              "\n              [30,39] 13/87 @820min, [40,49] 16/84 @370min\n\n");

  // Shape checks: skewed (Pareto-ish) buckets, short runs dominate.
  bool skewed = true;
  for (const auto& b : result.buckets) {
    if (b.num_runs >= 50 && b.mass_count.joint_ratio_mass > 40.0) {
      skewed = false;
    }
  }
  std::printf("  all populated buckets are mass-count skewed: %s\n",
              skewed ? "HOLDS" : "VIOLATED");

  result.figure.write_dat(bench::out_dir());
  bench::print_series_note("fig09_running_*.dat");
}
