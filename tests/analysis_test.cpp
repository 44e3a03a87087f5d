// Tests for the work-load analyzers (Figs 2-6, Table I) and the report
// primitives.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "analysis/workload_analyzers.hpp"
#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "util/check.hpp"

namespace cgc::analysis {
namespace {

const trace::TraceSet& google_trace() {
  static const trace::TraceSet t =
      gen::GoogleWorkloadModel().generate_workload(util::kSecondsPerDay);
  return t;
}

const trace::TraceSet& grid_trace() {
  static const trace::TraceSet t =
      gen::GridWorkloadModel(gen::presets::auvergrid())
          .generate_workload(util::kSecondsPerDay);
  return t;
}

TEST(Report, SeriesRowWidthEnforced) {
  Series s;
  s.column_names = {"x", "y"};
  s.add_row({1.0, 2.0});
  EXPECT_THROW(s.add_row({1.0}), util::Error);
}

TEST(Report, SanitizeName) {
  EXPECT_EQ(sanitize_name("LLNL-Atlas"), "llnl_atlas");
  EXPECT_EQ(sanitize_name("Google (MaxCap=32GB)"), "google_maxcap_32gb");
  EXPECT_EQ(sanitize_name("***"), "series");
}

TEST(Report, WriteDatProducesFiles) {
  Figure fig;
  fig.id = "test01";
  fig.title = "Test";
  Series s;
  s.name = "curve";
  s.column_names = {"x", "y"};
  s.add_row({1.0, 0.5});
  s.add_row({2.0, 1.0});
  fig.series.push_back(std::move(s));

  const auto dir = std::filesystem::temp_directory_path() /
                   ("cgc_report_" + std::to_string(::getpid()));
  fig.write_dat(dir.string());
  const auto path = dir / "test01_curve.dat";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line.front(), '#');
  std::filesystem::remove_all(dir);
}

TEST(Report, WriteDatReportsAFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  Figure fig;
  fig.id = "full01";
  fig.title = "Full";
  Series s;
  s.name = "curve";
  s.column_names = {"x"};
  s.add_row({1.0});
  fig.series.push_back(std::move(s));

  const auto dir = std::filesystem::temp_directory_path() /
                   ("cgc_report_full_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto target = dir / "full01_curve.dat";
  std::filesystem::create_symlink("/dev/full", target);
  try {
    fig.write_dat(dir.string());
    ADD_FAILURE() << "write_dat to a full disk did not throw";
  } catch (const util::TransientError& e) {
    EXPECT_NE(std::string(e.what()).find(target.string()), std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(PriorityAnalyzer, CountsMatchTraceTotals) {
  const PriorityHistogram hist = analyze_priorities(google_trace());
  std::int64_t job_total = 0;
  std::int64_t task_total = 0;
  for (int p = 0; p < trace::kNumPriorities; ++p) {
    job_total += hist.jobs[static_cast<std::size_t>(p)];
    task_total += hist.tasks[static_cast<std::size_t>(p)];
  }
  EXPECT_EQ(job_total,
            static_cast<std::int64_t>(google_trace().jobs().size()));
  EXPECT_EQ(task_total,
            static_cast<std::int64_t>(google_trace().tasks().size()));
}

TEST(PriorityAnalyzer, BandsPartitionTotals) {
  const PriorityHistogram hist = analyze_priorities(google_trace());
  const auto total = hist.jobs_in_band(trace::PriorityBand::kLow) +
                     hist.jobs_in_band(trace::PriorityBand::kMid) +
                     hist.jobs_in_band(trace::PriorityBand::kHigh);
  EXPECT_EQ(total, static_cast<std::int64_t>(google_trace().jobs().size()));
}

TEST(PriorityAnalyzer, FigureHasTwelveRows) {
  const Figure fig = analyze_priorities(google_trace()).to_figure();
  ASSERT_EQ(fig.series.size(), 1u);
  EXPECT_EQ(fig.series[0].rows.size(), 12u);
}

TEST(JobLengthAnalyzer, CdfSeriesPerSystem) {
  const trace::TraceSet* traces[] = {&google_trace(), &grid_trace()};
  const Figure fig = analyze_job_length_cdf(traces);
  ASSERT_EQ(fig.series.size(), 2u);
  EXPECT_EQ(fig.series[0].name, "google");
  EXPECT_EQ(fig.series[1].name, "AuverGrid");
  // CDF values climb to 1.
  const auto& rows = fig.series[0].rows;
  ASSERT_FALSE(rows.empty());
  EXPECT_DOUBLE_EQ(rows.back()[1], 1.0);
}

TEST(JobLengthAnalyzer, CloudShorterThanGrid) {
  const trace::TraceSet* traces[] = {&google_trace(), &grid_trace()};
  const Figure fig = analyze_job_length_cdf(traces);
  // Compare the CDF at 2000 s: the Fig 3 claim.
  const auto cdf_at = [](const Series& s, double x) {
    double f = 0.0;
    for (const auto& row : s.rows) {
      if (row[0] <= x) {
        f = row[1];
      }
    }
    return f;
  };
  EXPECT_GT(cdf_at(fig.series[0], 2000.0),
            cdf_at(fig.series[1], 2000.0) + 0.2);
}

TEST(TaskMassCount, GoogleIsMoreSkewedThanGrid) {
  const MassCountReport google =
      analyze_task_length_mass_count(google_trace());
  const MassCountReport grid = analyze_task_length_mass_count(grid_trace());
  // Fig 4: Google 6/94 vs AuverGrid 24/76 — Google far more Pareto-like.
  EXPECT_LT(google.result.joint_ratio_mass,
            grid.result.joint_ratio_mass);
  EXPECT_FALSE(google.figure.annotations.empty());
  EXPECT_FALSE(google.figure.series[0].rows.empty());
}

TEST(SubmissionAnalyzer, IntervalCdfSeries) {
  const trace::TraceSet* traces[] = {&google_trace(), &grid_trace()};
  const Figure fig = analyze_submission_interval_cdf(traces);
  ASSERT_EQ(fig.series.size(), 2u);
  // Google submits far more often: its median interval is smaller.
  const auto median_x = [](const Series& s) {
    for (const auto& row : s.rows) {
      if (row[1] >= 0.5) {
        return row[0];
      }
    }
    return s.rows.back()[0];
  };
  EXPECT_LT(median_x(fig.series[0]), median_x(fig.series[1]));
}

TEST(SubmissionAnalyzer, StatsAreInternallyConsistent) {
  const SubmissionStats stats = analyze_submission_stats(google_trace());
  EXPECT_EQ(stats.system, "google");
  EXPECT_LE(stats.min_per_hour, stats.avg_per_hour);
  EXPECT_LE(stats.avg_per_hour, stats.max_per_hour);
  EXPECT_GT(stats.fairness, 0.0);
  EXPECT_LE(stats.fairness, 1.0);
}

TEST(SubmissionAnalyzer, TableRenders) {
  const SubmissionStats google = analyze_submission_stats(google_trace());
  const SubmissionStats grid = analyze_submission_stats(grid_trace());
  const std::string table = render_submission_table(
      std::vector<SubmissionStats>{google, grid});
  EXPECT_NE(table.find("google"), std::string::npos);
  EXPECT_NE(table.find("AuverGrid"), std::string::npos);
  EXPECT_NE(table.find("fairness"), std::string::npos);
}

TEST(ResourceUsageAnalyzer, CpuCdfOrdering) {
  const trace::TraceSet* traces[] = {&google_trace(), &grid_trace()};
  const Figure fig = analyze_job_cpu_usage_cdf(traces);
  ASSERT_EQ(fig.series.size(), 2u);
  // Fig 6a: Google CPU usage is smaller than Grid's everywhere.
  const auto& google_rows = fig.series[0].rows;
  double google_p90 = 0.0;
  for (const auto& row : google_rows) {
    if (row[1] <= 0.9) {
      google_p90 = row[0];
    }
  }
  EXPECT_LT(google_p90, 2.0);
}

TEST(ResourceUsageAnalyzer, MemCdfExpandsCloudCapacities) {
  const trace::TraceSet* traces[] = {&google_trace(), &grid_trace()};
  const double caps[] = {32.0, 64.0};
  const Figure fig = analyze_job_mem_usage_cdf(traces, caps);
  // Google appears twice (32 GB / 64 GB what-ifs), the grid once.
  ASSERT_EQ(fig.series.size(), 3u);
  EXPECT_NE(fig.series[0].name.find("32GB"), std::string::npos);
  EXPECT_NE(fig.series[1].name.find("64GB"), std::string::npos);
  EXPECT_EQ(fig.series[2].name, "AuverGrid");
}

}  // namespace
}  // namespace cgc::analysis
