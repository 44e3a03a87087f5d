// Regenerates Figure 4: mass-count disparity of task lengths, Google vs
// AuverGrid.
//
// Paper reference values:
//   Google:    joint ratio 6/94,  mm-distance 23.19 (days axis),
//              mean 5.6 h, max 29 d
//   AuverGrid: joint ratio 24/76, mm-distance 0.82 d,
//              mean 7.2 h, max 18 d
#include <cstdio>

#include "analysis/workload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "gen/calibration.hpp"
#include "util/table.hpp"

CGC_BENCH("fig04", cgc::bench::CaseKind::kFigure,
          "Mass-count disparity of task lengths (Fig 4)") {
  using namespace cgc;
  const trace::TraceSet& google = bench::google_workload(0.25);
  const trace::TraceSet& auvergrid = bench::grid_workload("AuverGrid");

  const analysis::MassCountReport g =
      analysis::analyze_task_length_mass_count(google);
  const analysis::MassCountReport a =
      analysis::analyze_task_length_mass_count(auvergrid);

  using gen::paper::kAuverGridTaskJointRatioMass;
  using gen::paper::kGoogleTaskJointRatioMass;

  std::printf("Google tasks (n=%zu):\n", g.result.n);
  bench::print_comparison("  joint ratio (mass side)",
                          kGoogleTaskJointRatioMass,
                          g.result.joint_ratio_mass, 2);
  bench::print_comparison("  mm-distance (days)",
                          gen::paper::kGoogleTaskMmDistanceDays,
                          g.result.mm_distance / 86400.0, 3);
  bench::print_comparison("  mean task length (h)", 5.6, g.mean / 3600.0);
  bench::print_comparison("  max task length (d)", 29.0, g.max / 86400.0);

  std::printf("\nAuverGrid tasks (n=%zu):\n", a.result.n);
  bench::print_comparison("  joint ratio (mass side)",
                          kAuverGridTaskJointRatioMass,
                          a.result.joint_ratio_mass, 2);
  bench::print_comparison("  mm-distance (days)",
                          gen::paper::kAuverGridTaskMmDistanceDays,
                          a.result.mm_distance / 86400.0, 3);
  bench::print_comparison("  mean task length (h)", 7.2, a.mean / 3600.0);
  bench::print_comparison("  max task length (d)", 18.0, a.max / 86400.0);

  std::printf("\nShape check: Google is far more Pareto-principled than "
              "AuverGrid: %s\n",
              g.result.joint_ratio_mass < a.result.joint_ratio_mass
                  ? "HOLDS"
                  : "VIOLATED");

  g.figure.write_dat(bench::out_dir());
  a.figure.write_dat(bench::out_dir());
  bench::print_series_note("fig04_google_*.dat / fig04_auvergrid_*.dat");
}
