// Regenerates Figure 13: host-load time series of a Google machine vs
// AuverGrid and SHARCNET machines, plus the noise and autocorrelation
// comparison.
//
// Paper reference values:
//   AuverGrid CPU noise (min/mean/max): 0.00008 / 0.0011 / 0.0026
//   Google    CPU noise (min/mean/max): 0.00024 / 0.028  / 0.081
//   Cloud noise ~ 20x Grid noise on average; Grid CPU > Grid memory;
//   Google memory > Google CPU; Google load far less autocorrelated.
#include <vector>

#include "analysis/hostload_analyzers.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "gen/calibration.hpp"

CGC_BENCH("fig13", cgc::bench::CaseKind::kFigure,
          "Cloud vs Grid host load (Fig 13)") {
  using namespace cgc;
  const trace::TraceSet& google = bench::google_hostload();
  const trace::TraceSet& auvergrid = bench::grid_hostload("AuverGrid");
  const trace::TraceSet& sharcnet = bench::grid_hostload("SHARCNET");
  const trace::TraceSet* traces[] = {&google, &auvergrid, &sharcnet};

  const analysis::HostLoadComparison comparison =
      analysis::analyze_hostload_comparison(traces);
  bench::print("%s\n", comparison.render().c_str());

  bench::print_comparison("Google mean CPU noise",
                          gen::paper::kGoogleNoiseMean,
                          comparison.systems[0].noise_mean, 3);
  bench::print_comparison("AuverGrid mean CPU noise",
                          gen::paper::kAuverGridNoiseMean,
                          comparison.systems[1].noise_mean, 3);
  bench::print_comparison("cloud/grid noise ratio",
                          gen::paper::kCloudToGridNoiseRatio,
                          comparison.cloud_to_grid_noise_ratio, 3);

  const auto& g = comparison.systems[0];
  const auto& a = comparison.systems[1];
  bench::print("\n  Google: memory > CPU usage: %s (%.0f%% vs %.0f%%)\n",
              g.mean_mem_usage > g.mean_cpu_usage ? "HOLDS" : "VIOLATED",
              g.mean_mem_usage * 100.0, g.mean_cpu_usage * 100.0);
  bench::print("  Grid: CPU > memory usage: %s (%.0f%% vs %.0f%%)\n",
              a.mean_cpu_usage > a.mean_mem_usage ? "HOLDS" : "VIOLATED",
              a.mean_cpu_usage * 100.0, a.mean_mem_usage * 100.0);
  bench::print("  Google less autocorrelated than both grids: %s "
              "(%.3f vs %.3f/%.3f)\n",
              g.mean_autocorrelation <
                      comparison.systems[1].mean_autocorrelation &&
                      g.mean_autocorrelation <
                          comparison.systems[2].mean_autocorrelation
                  ? "HOLDS"
                  : "VIOLATED",
              g.mean_autocorrelation,
              comparison.systems[1].mean_autocorrelation,
              comparison.systems[2].mean_autocorrelation);

  for (const auto& s : comparison.systems) {
    bench::write_dat(s.series_figure);
  }
  bench::print_series_note(
      "fig13_<system>_host_load.dat (time_day cpu mem; plot the [0,30], "
      "[10,15], [10,11] day windows for the paper's three zoom levels)");
}
