// Regenerates Figure 12: mass-count disparity of relative memory usage
// over all machine-samples, all tasks vs high-priority tasks.
//
// Paper reference values: all tasks 43/57 with mm-distance 8%, mean
// memory load ~60%; high-priority 41/59 with mm-distance 13%, ~50%.
#include <cstdio>

#include "analysis/hostload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "gen/calibration.hpp"

CGC_BENCH("fig12", cgc::bench::CaseKind::kFigure,
          "Mass-count disparity of memory usage (Fig 12)") {
  using namespace cgc;
  const trace::TraceSet& trace = bench::google_hostload();

  const analysis::UsageMassCountReport all = analysis::analyze_usage_mass_count(
      trace, analysis::Metric::kMem, trace::PriorityBand::kLow);
  std::printf("all tasks (Fig 12a):\n");
  bench::print_comparison("  joint ratio (mass side)", 43.0,
                          all.result.joint_ratio_mass, 3);
  bench::print_comparison("  mm-distance (%)", 8.0,
                          all.result.mm_distance * 100.0, 3);
  bench::print_comparison("  mean memory usage",
                          gen::paper::kMemMeanUsageAllTasks,
                          all.mean_usage, 3);

  const analysis::UsageMassCountReport high =
      analysis::analyze_usage_mass_count(trace, analysis::Metric::kMem,
                                         trace::PriorityBand::kHigh);
  std::printf("\nhigh-priority tasks (Fig 12b):\n");
  bench::print_comparison("  joint ratio (mass side)", 41.0,
                          high.result.joint_ratio_mass, 3);
  bench::print_comparison("  mean memory usage",
                          gen::paper::kMemMeanUsageHighPriority,
                          high.mean_usage, 3);

  const analysis::UsageMassCountReport cpu_all =
      analysis::analyze_usage_mass_count(trace, analysis::Metric::kCpu,
                                         trace::PriorityBand::kLow);
  std::printf("\n  memory usage exceeds CPU usage (Figs 11 vs 12): %s "
              "(mem %.0f%% vs cpu %.0f%%)\n",
              all.mean_usage > cpu_all.mean_usage ? "HOLDS" : "VIOLATED",
              all.mean_usage * 100.0, cpu_all.mean_usage * 100.0);

  all.figure.write_dat(bench::out_dir());
  high.figure.write_dat(bench::out_dir());
  bench::print_series_note("fig12a/fig12b mass_count.dat");
}
