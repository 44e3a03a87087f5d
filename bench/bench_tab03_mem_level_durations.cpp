// Regenerates Table III: continuous duration of unchanged memory usage
// level, across all machines and tasks.
//
// Paper reference row (all priorities):
//   level      [0,0.2] [0.2,0.4] [0.4,0.6] [0.6,0.8] [0.8,1]
//   avg (min)     6        9        10        10       10
//   joint ratio 20/80    23/77     26/74     23/77    18/82
//   mm-dist(min) 119       83        63        95      351
#include <cstdio>

#include "analysis/hostload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "util/table.hpp"

CGC_BENCH("tab03", cgc::bench::CaseKind::kTable,
          "Continuous duration of unchanged memory usage level (Table III)") {
  using namespace cgc;
  const trace::TraceSet& trace = bench::google_hostload();
  const analysis::LevelDurationTable mem_table =
      analysis::analyze_level_durations(trace, analysis::Metric::kMem,
                                        trace::PriorityBand::kLow);
  std::printf("%s\n", mem_table.render().c_str());

  std::printf("paper (Table III): avg 6-10 min per level; joint ratios "
              "18/82..26/74; mm-dist 63-351 min\n\n");

  double mem_avg = 0.0;
  int mem_n = 0;
  for (const auto& row : mem_table.rows) {
    if (row.num_runs > 0) {
      mem_avg += row.avg_minutes;
      ++mem_n;
    }
  }
  const analysis::LevelDurationTable cpu_table =
      analysis::analyze_level_durations(trace, analysis::Metric::kCpu,
                                        trace::PriorityBand::kLow);
  double cpu_avg = 0.0;
  int cpu_n = 0;
  for (const auto& row : cpu_table.rows) {
    if (row.num_runs > 0) {
      cpu_avg += row.avg_minutes;
      ++cpu_n;
    }
  }
  bench::print_comparison("mean unchanged-memory-level duration (min)",
                          "6-10",
                          util::cell(mem_n > 0 ? mem_avg / mem_n : 0.0, 3));
  std::printf("\n  CPU level flips faster than memory level: %s "
              "(cpu %.1f min vs mem %.1f min)\n",
              cpu_avg / cpu_n < mem_avg / mem_n ? "HOLDS" : "VIOLATED",
              cpu_avg / cpu_n, mem_avg / mem_n);
}
