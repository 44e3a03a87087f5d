// Tests for the host-load analyzers (Figs 7-13, Tables II-III) on a
// small simulated cluster.
#include <gtest/gtest.h>

#include "analysis/hostload_analyzers.hpp"
#include "analysis/periodicity_analyzer.hpp"
#include "core/characterization.hpp"
#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "util/check.hpp"

namespace cgc::analysis {
namespace {

/// Shared 10-day, 16-machine Google host-load trace. Ten days reaches
/// steady state (the long-service population saturates after ~2x their
/// ~4-day mean length), which the level-duration properties need.
const trace::TraceSet& hostload() {
  static const trace::TraceSet t = [] {
    gen::GoogleModelConfig config;
    sim::SimConfig sim_config;
    return Characterization::simulate_google_hostload(
        config, sim_config, 16, 10 * util::kSecondsPerDay);
  }();
  return t;
}

const trace::TraceSet& grid_hostload() {
  static const trace::TraceSet t = Characterization::simulate_grid_hostload(
      gen::presets::auvergrid(), 8, 3 * util::kSecondsPerDay);
  return t;
}

TEST(HostLoadBuilders, GoogleBuilderSimulatesTheRequestedMachines) {
  const trace::TraceSet t = Characterization::simulate_google_hostload(
      gen::GoogleModelConfig{}, sim::SimConfig{}, 12,
      2 * util::kSecondsPerDay);
  EXPECT_EQ(t.machines().size(), 12u);
  EXPECT_GT(t.summary().num_samples, 0u);
  ASSERT_EQ(t.host_load().size(), 12u);
  for (const trace::HostLoadSeries& h : t.host_load()) {
    EXPECT_GT(h.size(), 0u) << "machine " << h.machine_id();
  }
}

TEST(HostLoadBuilders, SystemNamesNameTheFigureFiles) {
  // cgc_report's fig13 and ext_periodicity cases write
  // fig13_<system>_host_load.dat and ext_acf_<system>_<metric>_mean_acf.dat,
  // so these names are part of the golden output set.
  EXPECT_EQ(hostload().system_name(), "google-hostload");
  EXPECT_EQ(grid_hostload().system_name(), "AuverGrid-hostload");
  const trace::TraceSet* traces[] = {&hostload(), &grid_hostload()};
  const HostLoadComparison comparison =
      analyze_hostload_comparison(traces);
  ASSERT_EQ(comparison.systems.size(), 2u);
  EXPECT_EQ(comparison.systems[0].series_figure.id, "fig13_google_hostload");
  EXPECT_EQ(comparison.systems[1].series_figure.id,
            "fig13_auvergrid_hostload");
  EXPECT_EQ(analyze_periodicity(hostload(), Metric::kCpu).acf_figure.id,
            "ext_acf_google_hostload_cpu");
  EXPECT_EQ(analyze_periodicity(grid_hostload(), Metric::kMem).acf_figure.id,
            "ext_acf_auvergrid_hostload_memory");
}

TEST(MaxLoadAnalyzer, GroupsCoverAllMachines) {
  const MaxLoadDistribution dist = analyze_max_host_load(hostload());
  std::size_t cpu_machines = 0;
  for (const auto& g : dist.cpu) {
    cpu_machines += g.max_loads.size();
    // Max load never exceeds the group capacity (validator invariant).
    for (const double v : g.max_loads) {
      EXPECT_LE(v, g.capacity + 1e-3);
      EXPECT_GE(v, 0.0);
    }
  }
  EXPECT_EQ(cpu_machines, hostload().machines().size());
  EXPECT_FALSE(dist.mem.empty());
  EXPECT_FALSE(dist.mem_assigned.empty());
  ASSERT_EQ(dist.page_cache.size(), 1u);  // uniform page-cache capacity
}

TEST(MaxLoadAnalyzer, FiguresHaveSeriesPerGroup) {
  const MaxLoadDistribution dist = analyze_max_host_load(hostload());
  const auto figures = dist.to_figures();
  ASSERT_EQ(figures.size(), 4u);
  EXPECT_EQ(figures[0].id, "fig07a");
  EXPECT_EQ(figures[0].series.size(), dist.cpu.size());
  // Each histogram's pmf sums to ~1.
  for (const Series& s : figures[0].series) {
    double total = 0.0;
    for (const auto& row : s.rows) {
      total += row[1];
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(QueueStateAnalyzer, PicksBusiestMachineByDefault) {
  const QueueStateReport report = analyze_queue_state(hostload());
  EXPECT_GE(report.machine_id, 0);
  ASSERT_EQ(report.queue_figure.series.size(), 1u);
  const auto& rows = report.queue_figure.series[0].rows;
  ASSERT_FALSE(rows.empty());
  // Columns: time, pending, running, finished, abnormal — all counters
  // non-negative, cumulative columns non-decreasing.
  double prev_finished = 0.0, prev_abnormal = 0.0;
  for (const auto& row : rows) {
    EXPECT_GE(row[1], 0.0);
    EXPECT_GE(row[2], 0.0);
    EXPECT_GE(row[3], prev_finished);
    EXPECT_GE(row[4], prev_abnormal);
    prev_finished = row[3];
    prev_abnormal = row[4];
  }
}

TEST(QueueStateAnalyzer, CompletionSharesSumToOne) {
  const QueueStateReport report = analyze_queue_state(hostload());
  EXPECT_GT(report.total_completions, 0);
  EXPECT_GT(report.abnormal_fraction, 0.0);
  EXPECT_LT(report.abnormal_fraction, 1.0);
  const double share_sum =
      report.fail_share_of_abnormal + report.kill_share_of_abnormal +
      report.evict_share_of_abnormal + report.lost_share_of_abnormal;
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(QueueStateAnalyzer, ExplicitMachineSelection) {
  const std::int64_t id = hostload().machines()[0].machine_id;
  const QueueStateReport report = analyze_queue_state(hostload(), id);
  EXPECT_EQ(report.machine_id, id);
}

TEST(QueueRunMassCount, BucketsAreExhaustive) {
  const QueueRunMassCount result = analyze_queue_run_mass_count(hostload());
  ASSERT_EQ(result.buckets.size(), 6u);
  EXPECT_EQ(result.buckets[0].lo, 0);
  EXPECT_EQ(result.buckets[0].hi, 9);
  EXPECT_EQ(result.buckets[5].hi, -1);  // open-ended top bucket
  std::size_t total_runs = 0;
  for (const auto& b : result.buckets) {
    total_runs += b.num_runs;
  }
  EXPECT_GT(total_runs, 0u);
}

TEST(UsageSnapshot, LevelsAreQuantized) {
  const Figure fig = analyze_usage_snapshot(
      hostload(), Metric::kCpu, trace::PriorityBand::kLow, 8);
  ASSERT_EQ(fig.series.size(), 1u);
  for (const auto& row : fig.series[0].rows) {
    EXPECT_GE(row[2], 0.0);
    EXPECT_LE(row[2], 4.0);
    EXPECT_DOUBLE_EQ(row[2], std::floor(row[2]));
  }
}

TEST(LevelDurations, RowsCoverFiveLevels) {
  const LevelDurationTable table = analyze_level_durations(
      hostload(), Metric::kCpu, trace::PriorityBand::kLow);
  std::size_t populated = 0;
  for (const auto& row : table.rows) {
    if (row.num_runs > 0) {
      ++populated;
      EXPECT_GT(row.avg_minutes, 0.0);
      EXPECT_GE(row.max_minutes, row.avg_minutes);
    }
  }
  EXPECT_GE(populated, 2u);  // at least the idle and low levels appear
  const std::string rendered = table.render();
  EXPECT_NE(rendered.find("[0,0.2)"), std::string::npos);
  EXPECT_NE(rendered.find("joint ratio"), std::string::npos);
}

TEST(LevelDurations, CpuLevelsFlipMoreOftenThanMemory) {
  const LevelDurationTable cpu = analyze_level_durations(
      hostload(), Metric::kCpu, trace::PriorityBand::kLow);
  const LevelDurationTable mem = analyze_level_durations(
      hostload(), Metric::kMem, trace::PriorityBand::kLow);
  // Tables II/III: CPU usage levels change more frequently than memory
  // levels. Both metrics cover the same machine-time, so more runs means
  // shorter average runs.
  std::size_t cpu_runs = 0, mem_runs = 0;
  for (const auto& row : cpu.rows) {
    cpu_runs += row.num_runs;
  }
  for (const auto& row : mem.rows) {
    mem_runs += row.num_runs;
  }
  ASSERT_GT(cpu_runs, 0u);
  ASSERT_GT(mem_runs, 0u);
  EXPECT_GT(cpu_runs, mem_runs);
}

TEST(UsageMassCount, BoundsAndFigure) {
  const UsageMassCountReport report = analyze_usage_mass_count(
      hostload(), Metric::kMem, trace::PriorityBand::kLow);
  EXPECT_GT(report.mean_usage, 0.0);
  EXPECT_LT(report.mean_usage, 1.0);
  EXPECT_GT(report.result.joint_ratio_mass, 0.0);
  EXPECT_EQ(report.figure.id, "fig12a");
  EXPECT_FALSE(report.figure.annotations.empty());
}

TEST(UsageMassCount, HighPriorityUsageIsLower) {
  const auto all = analyze_usage_mass_count(hostload(), Metric::kCpu,
                                            trace::PriorityBand::kLow);
  const auto high = analyze_usage_mass_count(hostload(), Metric::kCpu,
                                             trace::PriorityBand::kHigh);
  EXPECT_LT(high.mean_usage, all.mean_usage);
  EXPECT_EQ(high.figure.id, "fig11b");
}

TEST(HostLoadComparison, CloudIsNoisierThanGrid) {
  const trace::TraceSet* traces[] = {&hostload(), &grid_hostload()};
  const HostLoadComparison comparison =
      analyze_hostload_comparison(traces);
  ASSERT_EQ(comparison.systems.size(), 2u);
  // The paper's Fig 13 headline: Cloud noise far above Grid noise.
  EXPECT_GT(comparison.cloud_to_grid_noise_ratio, 2.0);
  // Grid machines are CPU-heavy, memory-light; Cloud the reverse.
  EXPECT_GT(comparison.systems[1].mean_cpu_usage,
            comparison.systems[1].mean_mem_usage);
  EXPECT_GT(comparison.systems[0].mean_mem_usage,
            comparison.systems[0].mean_cpu_usage);
  // Representative series present for both.
  for (const auto& s : comparison.systems) {
    ASSERT_EQ(s.series_figure.series.size(), 1u);
    EXPECT_FALSE(s.series_figure.series[0].rows.empty());
  }
  const std::string rendered = comparison.render();
  EXPECT_NE(rendered.find("noise mean"), std::string::npos);
}

TEST(PeriodicityAnalyzer, ReportsPerHostStatistics) {
  const PeriodicityReport report =
      analyze_periodicity(hostload(), Metric::kCpu);
  EXPECT_EQ(report.num_hosts, hostload().machines().size());
  EXPECT_GE(report.fraction_periodic, 0.0);
  EXPECT_LE(report.fraction_periodic, 1.0);
  ASSERT_EQ(report.acf_figure.series.size(), 1u);
  // ACF values are correlations.
  for (const auto& row : report.acf_figure.series[0].rows) {
    EXPECT_GE(row[1], -1.0 - 1e-9);
    EXPECT_LE(row[1], 1.0 + 1e-9);
  }
}

TEST(PeriodicityAnalyzer, CloudHostsShowNoSpuriousPeriodicity) {
  // Cloud host load is persistent-but-aperiodic; the prominence
  // criterion must not flag its slowly decaying ACF as periodic.
  const PeriodicityReport cloud =
      analyze_periodicity(hostload(), Metric::kCpu);
  EXPECT_LE(cloud.fraction_periodic, 0.25);
}

TEST(PeriodicityAnalyzer, UndersubscribedGridSurfacesDiurnalPattern) {
  // Diurnal arrivals reach the host level only when the cluster has
  // slack; the queue of a saturated cluster absorbs them. Marginal
  // (last-fit) hosts carry the signal under first-fit packing.
  gen::GridSystemPreset preset = gen::presets::auvergrid();
  preset.node_utilization = 0.4;
  const trace::TraceSet undersubscribed =
      Characterization::simulate_grid_hostload(preset, 12,
                                               14 * util::kSecondsPerDay);
  const PeriodicityReport idle_grid =
      analyze_periodicity(undersubscribed, Metric::kCpu);
  const PeriodicityReport cloud =
      analyze_periodicity(hostload(), Metric::kCpu);
  EXPECT_GT(idle_grid.fraction_periodic, 0.0);
  EXPECT_GE(idle_grid.fraction_periodic, cloud.fraction_periodic);
}

TEST(MetricName, Names) {
  EXPECT_EQ(metric_name(Metric::kCpu), "cpu");
  EXPECT_EQ(metric_name(Metric::kMem), "memory");
}

}  // namespace
}  // namespace cgc::analysis
