// Regenerates Figure 11: mass-count disparity of relative CPU usage over
// all machine-samples, for all tasks and for high-priority tasks only.
//
// Paper reference values: all tasks joint ratio 40/60, mm-distance 13%,
// mean CPU load ~35%; high-priority 38/62, mm-distance 13%, ~20%.
#include "analysis/hostload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "gen/calibration.hpp"

CGC_BENCH("fig11", cgc::bench::CaseKind::kFigure,
          "Mass-count disparity of CPU usage (Fig 11)") {
  using namespace cgc;
  const trace::TraceSet& trace = bench::google_hostload();

  const analysis::UsageMassCountReport all = analysis::analyze_usage_mass_count(
      trace, analysis::Metric::kCpu, trace::PriorityBand::kLow);
  bench::print("all tasks (Fig 11a):\n");
  bench::print_comparison("  joint ratio (mass side)", 40.0,
                          all.result.joint_ratio_mass, 3);
  bench::print_comparison("  mm-distance (%)", 13.0,
                          all.result.mm_distance * 100.0, 3);
  bench::print_comparison("  mean CPU usage",
                          gen::paper::kCpuMeanUsageAllTasks,
                          all.mean_usage, 3);

  const analysis::UsageMassCountReport high =
      analysis::analyze_usage_mass_count(trace, analysis::Metric::kCpu,
                                         trace::PriorityBand::kHigh);
  bench::print("\nhigh-priority tasks (Fig 11b):\n");
  bench::print_comparison("  joint ratio (mass side)", 38.0,
                          high.result.joint_ratio_mass, 3);
  bench::print_comparison("  mean CPU usage",
                          gen::paper::kCpuMeanUsageHighPriority,
                          high.mean_usage, 3);

  bench::print("\n  high-priority load below all-task load: %s\n",
              high.mean_usage < all.mean_usage ? "HOLDS" : "VIOLATED");

  bench::write_dat(all.figure);
  bench::write_dat(high.figure);
  bench::print_series_note("fig11a/fig11b mass_count.dat");
}
