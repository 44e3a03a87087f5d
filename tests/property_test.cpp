// Cross-module property tests: randomized configurations must preserve
// the library's global invariants (valid traces, capacity limits, CDF
// monotonicity, mass-count identities).
#include <gtest/gtest.h>

#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "sim/cluster_sim.hpp"
#include "stats/ecdf.hpp"
#include "stats/mass_count.hpp"
#include "trace/validate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cgc {
namespace {

/// Randomized simulator configurations: whatever the knobs, the output
/// trace must validate and the stats must be self-consistent.
class SimInvariantProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimInvariantProperty, RandomConfigProducesValidTrace) {
  util::Rng rng(GetParam());
  sim::SimConfig config;
  config.horizon = util::kSecondsPerDay / 2;
  config.preemption = rng.bernoulli(0.5);
  config.placement =
      static_cast<sim::PlacementPolicy>(rng.uniform_int(0, 4));
  config.cpu_usage_jitter = rng.uniform(0.0, 0.4);
  config.mem_usage_jitter = rng.uniform(0.0, 0.1);
  config.machine_cpu_jitter = rng.uniform(0.0, 0.3);
  config.mem_admission_headroom = rng.uniform(0.7, 1.0);
  config.seed = GetParam() * 7919;

  // Random machine park.
  std::vector<trace::Machine> machines;
  const int num_machines = 2 + static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < num_machines; ++i) {
    trace::Machine m;
    m.machine_id = i + 1;
    m.cpu_capacity = static_cast<float>(rng.uniform(0.25, 1.0));
    m.mem_capacity = static_cast<float>(rng.uniform(0.25, 1.0));
    machines.push_back(m);
  }

  // Random workload, including fates and bursty sizes.
  sim::Workload workload;
  const int num_tasks = 50 + static_cast<int>(rng.uniform_int(0, 300));
  for (int i = 0; i < num_tasks; ++i) {
    sim::TaskSpec spec;
    spec.job_id = 1 + i / 3;
    spec.task_index = i % 3;
    spec.priority = static_cast<std::uint8_t>(rng.uniform_int(1, 12));
    spec.submit_time = rng.uniform_int(0, config.horizon - 1);
    spec.duration = rng.uniform_int(30, 7200);
    spec.cpu_request = static_cast<float>(rng.uniform(0.01, 0.2));
    spec.mem_request = static_cast<float>(rng.uniform(0.01, 0.2));
    spec.cpu_usage_ratio = static_cast<float>(rng.uniform(0.1, 1.0));
    spec.mem_usage_ratio = static_cast<float>(rng.uniform(0.5, 1.0));
    const double fate_draw = rng.uniform();
    if (fate_draw < 0.2) {
      spec.fate = trace::TaskEventType::kFail;
      spec.max_resubmits = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    } else if (fate_draw < 0.35) {
      spec.fate = trace::TaskEventType::kKill;
    } else if (fate_draw < 0.4) {
      spec.fate = trace::TaskEventType::kLost;
    }
    if (spec.fate != trace::TaskEventType::kFinish) {
      spec.abnormal_after = rng.uniform_int(1, spec.duration);
    }
    workload.push_back(spec);
  }

  sim::ClusterSim sim(machines, config);
  const trace::TraceSet out = sim.run(workload);
  // Invariant 1: structurally valid (state machine, capacities, times).
  EXPECT_TRUE(trace::validate(out).empty());
  // Invariant 2: bookkeeping identities.
  const sim::SimStats& stats = sim.stats();
  EXPECT_EQ(stats.submitted, num_tasks);
  EXPECT_LE(stats.finished + stats.failed + stats.killed + stats.lost,
            stats.scheduled + stats.evicted);
  EXPECT_EQ(out.tasks().size(), static_cast<std::size_t>(num_tasks));
  // Invariant 3: every sample is within physical capacity.
  for (const trace::HostLoadSeries& h : out.host_load()) {
    const auto machine = out.machine_by_id(h.machine_id());
    ASSERT_TRUE(machine.has_value());
    for (std::size_t i = 0; i < h.size(); ++i) {
      EXPECT_LE(h.cpu_total(i), machine->cpu_capacity + 1e-4);
      EXPECT_LE(h.mem_total(i), machine->mem_capacity + 1e-4);
      EXPECT_GE(h.running(i), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimInvariantProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

/// Generated workloads across seeds are always valid traces.
class GeneratorValidityProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorValidityProperty, GoogleWorkloadAlwaysValid) {
  gen::GoogleModelConfig config;
  config.seed = GetParam();
  const auto trace = gen::GoogleWorkloadModel(config).generate_workload(
      util::kSecondsPerHour * 12);
  EXPECT_TRUE(trace::validate(trace).empty());
  EXPECT_GT(trace.jobs().size(), 100u);
}

TEST_P(GeneratorValidityProperty, GridWorkloadAlwaysValid) {
  gen::GridSystemPreset preset = gen::presets::sharcnet();
  preset.seed = GetParam();
  const auto trace = gen::GridWorkloadModel(preset).generate_workload(
      util::kSecondsPerDay);
  EXPECT_TRUE(trace::validate(trace).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorValidityProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

/// Ecdf quantile/evaluation duality on random samples.
class EcdfDualityProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EcdfDualityProperty, QuantileAndCdfAreConsistent) {
  util::Rng rng(GetParam());
  std::vector<double> sample;
  const int n = 10 + static_cast<int>(rng.uniform_int(0, 2000));
  for (int i = 0; i < n; ++i) {
    sample.push_back(rng.normal(0.0, 10.0));
  }
  const stats::Ecdf ecdf(std::move(sample));
  for (double q = 0.05; q < 1.0; q += 0.1) {
    const double x = ecdf.quantile(q);
    EXPECT_GE(ecdf(x), q - 1e-12);
    // Just below x the CDF must be below q (x is the smallest such value).
    EXPECT_LT(ecdf(x - 1e-9) , q + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdfDualityProperty,
                         ::testing::Values(3, 14, 159, 2653, 58979));

/// Mass-count identities on mixtures of arbitrary positive parts.
class MassCountIdentityProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MassCountIdentityProperty, CrossoverIdentity) {
  util::Rng rng(GetParam());
  std::vector<double> sample;
  const int n = 100 + static_cast<int>(rng.uniform_int(0, 5000));
  for (int i = 0; i < n; ++i) {
    // Arbitrary positive mixture: uniform body + occasional huge values.
    double v = rng.uniform(0.1, 10.0);
    if (rng.bernoulli(0.05)) {
      v *= rng.uniform(10.0, 1000.0);
    }
    sample.push_back(v);
  }
  const auto r = stats::mass_count_disparity(sample);
  // The discrete crossover overshoots 100 by at most one item's count
  // step plus one item's mass share (a single huge value can carry a
  // large fraction of the total mass).
  double total = 0.0;
  double largest = 0.0;
  for (const double v : sample) {
    total += v;
    largest = std::max(largest, v);
  }
  const double max_step =
      100.0 / static_cast<double>(n) + 100.0 * largest / total;
  EXPECT_GE(r.joint_ratio_mass + r.joint_ratio_count, 100.0 - 1e-6);
  EXPECT_LE(r.joint_ratio_mass + r.joint_ratio_count,
            100.0 + max_step + 1e-6);
  EXPECT_GE(r.mass_median, r.count_median - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MassCountIdentityProperty,
                         ::testing::Values(7, 77, 777, 7777));

}  // namespace
}  // namespace cgc
