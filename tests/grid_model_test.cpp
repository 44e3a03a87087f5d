// Calibration tests for the Grid system presets (Table I and the
// Section III comparisons).
#include <gtest/gtest.h>

#include "gen/calibration.hpp"
#include "gen/grid_model.hpp"
#include "stats/descriptive.hpp"
#include "stats/fairness.hpp"
#include "trace/validate.hpp"
#include "util/check.hpp"

namespace cgc::gen {
namespace {

/// Per-preset calibration sweep.
class GridPresetTest : public ::testing::TestWithParam<GridSystemPreset> {
 protected:
  trace::TraceSet generate(util::TimeSec horizon =
                               14 * util::kSecondsPerDay) const {
    return GridWorkloadModel(GetParam()).generate_workload(horizon);
  }
};

TEST_P(GridPresetTest, TraceIsValid) {
  EXPECT_TRUE(trace::validate(generate(4 * util::kSecondsPerDay)).empty());
}

TEST_P(GridPresetTest, MeanSubmissionRateInBand) {
  const trace::TraceSet trace = generate();
  const auto hourly = trace.jobs_per_hour();
  const double mean = stats::summarize(std::span<const double>(hourly)).mean();
  // Bursty processes have noisy realized means; require the right scale.
  EXPECT_GT(mean, GetParam().jobs_per_hour * 0.4) << GetParam().name;
  EXPECT_LT(mean, GetParam().jobs_per_hour * 3.0) << GetParam().name;
}

TEST_P(GridPresetTest, FairnessIsGridLike) {
  const trace::TraceSet trace = generate();
  const double fairness = stats::jain_fairness(trace.jobs_per_hour());
  // Every Grid system in Table I is far below Google's 0.94.
  EXPECT_LT(fairness, 0.75) << GetParam().name;
  EXPECT_GT(fairness, 0.005) << GetParam().name;
}

TEST_P(GridPresetTest, JobLengthsRespectCap) {
  const trace::TraceSet trace = generate();
  const auto lengths = trace.job_lengths();
  ASSERT_FALSE(lengths.empty()) << GetParam().name;
  for (const double l : lengths) {
    // Wait time rides on top of the execution-time cap.
    EXPECT_LE(l, GetParam().max_length_s + 12 * 3600.0) << GetParam().name;
  }
}

TEST_P(GridPresetTest, JobsAreLongerThanCloudJobs) {
  const trace::TraceSet trace = generate();
  const auto lengths = trace.job_lengths();
  // Fig 3: most Grid jobs exceed 2000 s while most Google jobs sit under
  // 1000 s. DAS-2 (interactive research cluster) is the one exception the
  // paper's own plot shows as short.
  if (GetParam().name == "DAS-2") {
    return;
  }
  EXPECT_GT(stats::median(lengths), 2000.0) << GetParam().name;
}

TEST_P(GridPresetTest, ParallelismMatchesPreset) {
  const trace::TraceSet trace = generate(4 * util::kSecondsPerDay);
  int max_procs = 0;
  for (const ProcsChoice& c : GetParam().procs) {
    max_procs = std::max(max_procs, c.procs);
  }
  for (const trace::Job& j : trace.jobs()) {
    EXPECT_GE(j.cpu_parallelism, 0.4f) << GetParam().name;
    EXPECT_LE(j.cpu_parallelism, static_cast<float>(max_procs))
        << GetParam().name;
  }
}

TEST_P(GridPresetTest, MemoryIsInMegabytes) {
  const trace::TraceSet trace = generate(2 * util::kSecondsPerDay);
  EXPECT_TRUE(trace.memory_in_mb());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, GridPresetTest, ::testing::ValuesIn(presets::all()),
    [](const auto& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

TEST(GridPresets, AllEightSystemsPresent) {
  const auto all = presets::all();
  ASSERT_EQ(all.size(), 8u);
  // The seven Table I grids plus DAS-2 (used in Fig 6).
  EXPECT_EQ(all[0].name, "AuverGrid");
  EXPECT_EQ(all[1].name, "NorduGrid");
  EXPECT_EQ(all[2].name, "SHARCNET");
  EXPECT_EQ(all[7].name, "DAS-2");
}

TEST(GridPresets, TableIRatesEncoded) {
  // Spot-check the preset rates against the calibration table.
  EXPECT_DOUBLE_EQ(presets::auvergrid().jobs_per_hour, 45);
  EXPECT_DOUBLE_EQ(presets::sharcnet().jobs_per_hour, 126);
  EXPECT_DOUBLE_EQ(presets::llnl_atlas().jobs_per_hour, 8.4);
  EXPECT_DOUBLE_EQ(presets::anl().target_fairness, 0.51);
  EXPECT_DOUBLE_EQ(presets::metacentrum().target_fairness, 0.04);
}

TEST(GridModel, AuverGridTaskLengthCalibration) {
  // Section III.2: AuverGrid mean task ~7.2 h; ~70% under 12 h. Use a
  // month so the long tail is represented.
  GridWorkloadModel model(presets::auvergrid());
  const trace::TraceSet trace =
      model.generate_workload(util::kSecondsPerMonth);
  const auto durations = trace.task_run_durations();
  ASSERT_GT(durations.size(), 5000u);
  const double mean_h =
      stats::summarize(std::span<const double>(durations)).mean() / 3600.0;
  EXPECT_NEAR(mean_h / 7.2, 1.0, 0.35);
  EXPECT_NEAR(stats::fraction_below(durations, 12.0 * 3600), 0.75, 0.10);
}

TEST(GridModel, SimWorkloadIsGridShaped) {
  GridWorkloadModel model(presets::auvergrid());
  const sim::Workload specs =
      model.generate_sim_workload(2 * util::kSecondsPerDay, 8);
  ASSERT_FALSE(specs.empty());
  for (const sim::TaskSpec& s : specs) {
    EXPECT_EQ(s.priority, 1);  // no Google-style priorities
    EXPECT_EQ(s.fate, trace::TaskEventType::kFinish);
    EXPECT_GE(s.duration, 60);
    // Quarter-node core slots, compute-bound.
    EXPECT_NEAR(s.cpu_request, 0.98f / 4.0f, 1e-5);
    EXPECT_GT(s.cpu_usage_ratio, 0.5f);
  }
}

/// generate_sim_workload reserves once from the arrival count and the
/// preset's processor choices: the vector never regrows and, at a scale
/// where six standard deviations of headroom are below 1% of the mean,
/// ends within 1% of its size.
TEST(GridModel, SimWorkloadIsReservedOnce) {
  GridSystemPreset preset = presets::auvergrid();  // the plan's grid model
  for (const std::uint64_t seed : {1ULL, 7ULL}) {
    for (const std::size_t machines : {4000U, 8000U}) {
      preset.seed = seed;
      const sim::Workload specs = GridWorkloadModel(preset)
          .generate_sim_workload(3 * util::kSecondsPerDay, machines);
      ASSERT_GT(specs.size(), 25000u);
      EXPECT_LE(static_cast<double>(specs.capacity()),
                1.01 * static_cast<double>(specs.size()) + 64)
          << "seed " << seed << ", " << machines
          << " machines: " << specs.size() << " specs";
    }
  }
}

TEST(GridModel, ApplyGridSimDefaultsDisablesPreemption) {
  sim::SimConfig config;
  GridWorkloadModel::apply_grid_sim_defaults(&config);
  EXPECT_FALSE(config.preemption);
  EXPECT_LT(config.machine_cpu_jitter, 0.01);
  EXPECT_EQ(config.placement, sim::PlacementPolicy::kFirstFit);
}

TEST(GridModel, MachinesAreHomogeneousFullNodes) {
  GridWorkloadModel model(presets::sharcnet());
  const auto machines = model.make_machines(10);
  ASSERT_EQ(machines.size(), 10u);
  for (const trace::Machine& m : machines) {
    EXPECT_FLOAT_EQ(m.cpu_capacity, 1.0f);
    EXPECT_FLOAT_EQ(m.mem_capacity, 1.0f);
  }
}

TEST(GridModel, EmptyProcsThrows) {
  GridSystemPreset preset = presets::auvergrid();
  preset.procs.clear();
  EXPECT_THROW(GridWorkloadModel{preset}, util::Error);
}

}  // namespace
}  // namespace cgc::gen
