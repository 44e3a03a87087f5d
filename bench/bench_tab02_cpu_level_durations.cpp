// Regenerates Table II: continuous duration of unchanged CPU usage
// level, across all machines and tasks.
//
// Paper reference row (all priorities):
//   level      [0,0.2] [0.2,0.4] [0.4,0.6] [0.6,0.8] [0.8,1]
//   avg (min)     6        6         6         6        5
//   joint ratio 26/74    28/72     30/70     30/70    27/73
//   mm-dist(min)  49       25        18        19       24
#include "analysis/hostload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "util/table.hpp"

CGC_BENCH("tab02", cgc::bench::CaseKind::kTable,
          "Continuous duration of unchanged CPU usage level (Table II)") {
  using namespace cgc;
  const trace::TraceSet& trace = bench::google_hostload();
  const analysis::LevelDurationTable table = analysis::analyze_level_durations(
      trace, analysis::Metric::kCpu, trace::PriorityBand::kLow);
  bench::print("%s\n", table.render().c_str());

  bench::print("paper (Table II): avg 5-6 min per level; joint ratios "
              "26/74..30/70; mm-dist 18-49 min\n\n");

  double avg = 0.0;
  int populated = 0;
  for (const auto& row : table.rows) {
    if (row.num_runs > 0) {
      avg += row.avg_minutes;
      ++populated;
    }
  }
  bench::print_comparison("mean unchanged-CPU-level duration (min)", 6.0,
                          populated > 0 ? avg / populated : 0.0, 3);

  // The text also reports the mid+high and high-priority views.
  for (const trace::PriorityBand band :
       {trace::PriorityBand::kMid, trace::PriorityBand::kHigh}) {
    const analysis::LevelDurationTable view =
        analysis::analyze_level_durations(trace, analysis::Metric::kCpu,
                                          band);
    bench::print("%s\n", view.render().c_str());
  }
}
