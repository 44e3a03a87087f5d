// Extension: where does periodicity live — arrivals or host load?
//
// The paper's Section V cites H. Li's finding that Grid load exhibits
// clear diurnal patterns exploitable for prediction, while its own
// conclusion is that Cloud host load is noisy and unstable. This harness
// locates the periodicity: Grid *arrivals* are strongly diurnal (that is
// what drives Table I's low fairness), but whether the pattern reaches
// the *host* level depends on saturation — a backlogged cluster absorbs
// the cycle in its queue, an under-subscribed one breathes with it.
// Cloud hosts show persistence without periodicity.
#include <cstdio>

#include "analysis/periodicity_analyzer.hpp"
#include "common.hpp"
#include "registry.hpp"
#include "core/characterization.hpp"
#include "util/table.hpp"

CGC_BENCH("ext_periodicity", cgc::bench::CaseKind::kExtension,
          "Host-load periodicity, Cloud vs Grid (extension)") {
  using namespace cgc;
  const trace::TraceSet& google = bench::google_hostload();
  const trace::TraceSet& auvergrid = bench::grid_hostload("AuverGrid");

  // Utilization sweep for the grid: saturation vs slack.
  const util::TimeSec horizon = bench::hostload_horizon();
  std::vector<std::pair<std::string, trace::TraceSet>> grids;
  for (const double util : {0.5, 0.75}) {
    gen::GridSystemPreset preset = bench::preset_by_name("AuverGrid");
    preset.node_utilization = util;
    char name[64];
    std::snprintf(name, sizeof(name), "AuverGrid (util=%.2f)", util);
    grids.emplace_back(name, Characterization::simulate_grid_hostload(
                                 preset, bench::grid_machines(), horizon));
  }

  util::AsciiTable table({"system", "metric", "periodic hosts",
                          "median period (h)", "peak strength"});
  const auto add = [&table](const std::string& name,
                            const trace::TraceSet& trace,
                            analysis::Metric metric) {
    const analysis::PeriodicityReport r =
        analysis::analyze_periodicity(trace, metric);
    table.add_row({name, std::string(analysis::metric_name(metric)),
                   util::cell_pct(r.fraction_periodic),
                   util::cell(r.median_period_hours, 3),
                   util::cell(r.mean_strength, 2)});
    bench::write_dat(r.acf_figure);
    return r;
  };

  const auto cloud_cpu = add("Google", google, analysis::Metric::kCpu);
  add("Google", google, analysis::Metric::kMem);
  const auto grid_sat =
      add("AuverGrid (saturated)", auvergrid, analysis::Metric::kCpu);
  analysis::PeriodicityReport grid_idle{};
  for (auto& [name, trace] : grids) {
    const auto r = add(name, trace, analysis::Metric::kCpu);
    if (grid_idle.num_hosts == 0) {
      grid_idle = r;
    }
  }
  bench::print("%s\n", table.render().c_str());

  // Diurnal prominence of the mean ACF: the 24-hour value above the
  // deepest trough before it. This separates a genuine daily cycle from
  // raw persistence (Cloud hosts are persistent — long services — but
  // not cyclic, so their ACF decays without rebounding at 24 h).
  const auto diurnal_prominence =
      [](const analysis::PeriodicityReport& report) {
        const auto& rows = report.acf_figure.series[0].rows;
        double trough = 1.0;
        for (std::size_t l = 0; l + 1 < 24 && l < rows.size(); ++l) {
          trough = std::min(trough, rows[l][1]);
        }
        return rows.size() >= 24 ? rows[23][1] - trough : 0.0;
      };
  const double cloud_prom = diurnal_prominence(cloud_cpu);
  const double grid_prom = diurnal_prominence(grid_sat);
  const double grid_idle_prom = diurnal_prominence(grid_idle);

  bench::print("  Cloud hosts aperiodic (persistence, not cycles): %s "
              "(%.0f%% periodic, diurnal prominence %.3f)\n",
              cloud_cpu.fraction_periodic <= 0.25 ? "HOLDS" : "VIOLATED",
              cloud_cpu.fraction_periodic * 100.0, cloud_prom);
  bench::print("  Grid diurnal prominence exceeds Cloud's: %s "
              "(%.3f/%.3f vs %.3f)\n",
              std::max(grid_prom, grid_idle_prom) > cloud_prom ? "HOLDS"
                                                               : "VIOLATED",
              grid_prom, grid_idle_prom, cloud_prom);
  bench::print_series_note("ext_acf_<system>_<metric>_mean_acf.dat");
}
