// cgc::plan contract tests.
//
// Pins the four guarantees the planning engine ships on:
//   * scenario identity — ScenarioSpec::key() and scenario_id() are
//     frozen pure functions of the spec (goldens below; changing the
//     format re-ids every checkpoint on disk, so it must be loud);
//   * matrix expansion — cross-product counts, frozen order, and the
//     digest handshake between shards;
//   * scoring — Pareto dominance over the frozen objective set, the
//     undefined-cost sentinel, and the refusal to score a run without
//     host-load samples (the old capacity_planner UB, now a DataError);
//   * execution — plan.json bytes are identical at any worker count and
//     across sharded checkpoint + merge vs a single process, and resume
//     reuses only finished scenarios. The merge/resume taxonomy itself
//     is the shard ledger's, tested once in sweep_test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "plan/matrix.hpp"
#include "plan/plan_io.hpp"
#include "plan/runner.hpp"
#include "plan/scenario.hpp"
#include "plan/score.hpp"
#include "sim/cluster_sim.hpp"
#include "sweep/ledger.hpp"
#include "sweep/partition.hpp"
#include "trace/trace_set.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace cgc::plan {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Scenario identity

TEST(ScenarioTest, KeyFormatIsFrozen) {
  const ScenarioSpec spec;  // all defaults
  EXPECT_EQ(spec.key(),
            "fleet=64;horizon=86400;workload=google:1;mix=1;preempt=1;"
            "remap=none;place=balanced;util=0.75;cost=0.04;slo=300;seed=42");
}

TEST(ScenarioTest, IdIsFrozenAndPureInTheSpec) {
  const ScenarioSpec spec;
  // Golden: sweep::stable_case_hash over the key above. If this moves,
  // every shard checkpoint on disk is silently re-identified — that is
  // a breaking change, not a refactor.
  EXPECT_EQ(scenario_id(spec), "s286e9cee4522ceee");
  EXPECT_EQ(scenario_id(spec),
            "s" + []() {
              char buf[17];
              std::snprintf(buf, sizeof(buf), "%016llx",
                            static_cast<unsigned long long>(
                                sweep::stable_case_hash(ScenarioSpec{}.key())));
              return std::string(buf);
            }());

  ScenarioSpec other;
  EXPECT_EQ(scenario_id(other), scenario_id(spec));
  other.fleet = 32;
  EXPECT_NE(scenario_id(other), scenario_id(spec));
}

TEST(ScenarioTest, EveryAxisFieldFeedsTheId) {
  const ScenarioSpec base;
  std::set<std::string> ids = {scenario_id(base)};
  auto expect_new = [&](ScenarioSpec spec, const char* what) {
    EXPECT_TRUE(ids.insert(scenario_id(spec)).second) << what;
  };
  ScenarioSpec s = base;
  s.fleet = 128;
  expect_new(s, "fleet");
  s = base;
  s.horizon = 3600;
  expect_new(s, "horizon");
  s = base;
  s.workload = {{"auvergrid", 1.0}};
  expect_new(s, "workload model");
  s = base;
  s.workload = {{"google", 0.5}};
  expect_new(s, "workload weight");
  s = base;
  s.hetero_mix = 0.25;
  expect_new(s, "hetero_mix");
  s = base;
  s.preemption = false;
  expect_new(s, "preemption");
  s = base;
  s.remap = PriorityRemap::kInvert;
  expect_new(s, "remap");
  s = base;
  s.placement = sim::PlacementPolicy::kBestFit;
  expect_new(s, "placement");
  s = base;
  s.target_utilization = 0.6;
  expect_new(s, "target_utilization");
  s = base;
  s.cost_per_machine_hour = 0.10;
  expect_new(s, "cost");
  s = base;
  s.slo_wait_s = 60;
  expect_new(s, "slo");
  s = base;
  s.seed = 7;
  expect_new(s, "seed");
}

// ---------------------------------------------------------------------------
// Matrix expansion

TEST(MatrixTest, DefaultMatrixExpandsTo576) {
  const ScenarioMatrix matrix = default_matrix(6 * util::kSecondsPerHour);
  EXPECT_EQ(matrix.scenarios.size(), 576u);
  // Ids are unique — the cross-product never collapses two scenarios.
  std::set<std::string> ids;
  for (const ScenarioSpec& spec : matrix.scenarios) {
    EXPECT_TRUE(ids.insert(scenario_id(spec)).second);
  }
}

TEST(MatrixTest, SmallMatrixExpandsTo8) {
  EXPECT_EQ(small_matrix(3600).scenarios.size(), 8u);
}

TEST(MatrixTest, BuilderWithNoAxesExpandsToTheBaseSpec) {
  ScenarioSpec base;
  base.fleet = 13;
  const ScenarioMatrix matrix = MatrixBuilder("one", base).build();
  ASSERT_EQ(matrix.scenarios.size(), 1u);
  EXPECT_EQ(scenario_id(matrix.scenarios[0]), scenario_id(base));
}

TEST(MatrixTest, ExplicitlyEmptyAxisIsFatal) {
  EXPECT_THROW(MatrixBuilder("bad", ScenarioSpec{}).fleets({}).build(),
               util::FatalError);
}

TEST(MatrixTest, ExpansionOrderIsFrozenFleetsOutermost) {
  const ScenarioMatrix matrix =
      MatrixBuilder("order", ScenarioSpec{})
          .fleets({1, 2})
          .target_utilizations({0.5, 0.9})
          .build();
  ASSERT_EQ(matrix.scenarios.size(), 4u);
  EXPECT_EQ(matrix.scenarios[0].fleet, 1u);
  EXPECT_DOUBLE_EQ(matrix.scenarios[0].target_utilization, 0.5);
  EXPECT_DOUBLE_EQ(matrix.scenarios[1].target_utilization, 0.9);
  EXPECT_EQ(matrix.scenarios[1].fleet, 1u);
  EXPECT_EQ(matrix.scenarios[2].fleet, 2u);
}

TEST(MatrixTest, DigestIsPureAndOrderSensitive) {
  const ScenarioMatrix a = small_matrix(3600);
  const ScenarioMatrix b = small_matrix(3600);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), small_matrix(7200).digest());

  ScenarioMatrix reversed = small_matrix(3600);
  std::reverse(reversed.scenarios.begin(), reversed.scenarios.end());
  EXPECT_NE(reversed.digest(), a.digest());
}

TEST(MatrixTest, ShardOwnershipPartitionsTheMatrix) {
  const ScenarioMatrix matrix = default_matrix(3600);
  std::vector<std::size_t> counts(4, 0);
  for (const ScenarioSpec& spec : matrix.scenarios) {
    int owners = 0;
    for (int i = 0; i < 4; ++i) {
      if (sweep::owns(sweep::ShardSpec{i, 4}, scenario_id(spec))) {
        ++owners;
        ++counts[static_cast<std::size_t>(i)];
      }
    }
    EXPECT_EQ(owners, 1) << scenario_id(spec);
  }
  // The stable hash spreads scenarios: no shard is empty or hogs all.
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 0u);
    EXPECT_LT(c, matrix.scenarios.size());
  }
}

// ---------------------------------------------------------------------------
// Scoring

ScenarioScore make_score(double util, double evict, double p99,
                         double usd) {
  ScenarioScore s;
  s.cpu_util_mean = util;
  s.eviction_rate = evict;
  s.wait_p99_s = p99;
  s.usd_per_slo = usd;
  return s;
}

TEST(ScoreTest, DominanceIsStrictOnTheFrozenObjectives) {
  const ScenarioScore better = make_score(0.8, 0.01, 10, 1.0);
  const ScenarioScore worse = make_score(0.7, 0.02, 20, 2.0);
  EXPECT_TRUE(dominates(better, worse));
  EXPECT_FALSE(dominates(worse, better));
  // Equal on every objective: neither dominates (strictness).
  EXPECT_FALSE(dominates(better, better));
  // Trade-off (better utilization, worse cost): incomparable.
  const ScenarioScore tradeoff = make_score(0.9, 0.01, 10, 3.0);
  EXPECT_FALSE(dominates(tradeoff, better));
  EXPECT_FALSE(dominates(better, tradeoff));
}

TEST(ScoreTest, UndefinedCostNeverDominatesAndIsDominated) {
  const ScenarioScore undefined_cost = make_score(0.9, 0.0, 0, -1.0);
  const ScenarioScore defined = make_score(0.9, 0.0, 0, 5.0);
  EXPECT_FALSE(dominates(undefined_cost, defined));
  EXPECT_TRUE(dominates(defined, undefined_cost));
}

TEST(ScoreTest, ParetoFrontierKeepsNonDominatedInInputOrder) {
  const std::vector<ScenarioScore> scores = {
      make_score(0.8, 0.01, 10, 1.0),  // frontier
      make_score(0.7, 0.02, 20, 2.0),  // dominated by [0]
      make_score(0.9, 0.05, 10, 1.5),  // frontier (best util)
      make_score(0.75, 0.01, 10, 0.5),  // frontier (best cost)
  };
  EXPECT_EQ(pareto_frontier(scores),
            (std::vector<std::size_t>{0, 2, 3}));
}

TEST(ScoreTest, RefusesToScoreWithoutHostLoad) {
  // The old capacity_planner indexed host_load()[0] unchecked; a trace
  // with no load series must be a taxonomy error, not UB.
  const trace::TraceSet empty;
  const sim::SimStats stats;
  EXPECT_THROW(score_run(ScenarioSpec{}, empty, stats), util::DataError);
}

TEST(ScoreTest, WaitHistogramQuantilesAreDeterministicBucketBounds) {
  sim::SimStats stats;
  EXPECT_DOUBLE_EQ(stats.wait_quantile(0.99), 0.0);  // empty histogram
  EXPECT_DOUBLE_EQ(stats.wait_fraction_within(300.0), 1.0);
  for (int i = 0; i < 90; ++i) {
    stats.record_wait(0);  // bucket 0: no wait
  }
  for (int i = 0; i < 9; ++i) {
    stats.record_wait(100);  // bucket [64, 128)
  }
  stats.record_wait(100000);  // bucket [65536, 131072)
  EXPECT_EQ(stats.wait_count, 100);
  EXPECT_DOUBLE_EQ(stats.wait_quantile(0.50), 0.0);
  EXPECT_DOUBLE_EQ(stats.wait_quantile(0.90), 128.0);
  EXPECT_DOUBLE_EQ(stats.wait_quantile(0.999), 131072.0);
  EXPECT_DOUBLE_EQ(stats.wait_fraction_within(128.0), 0.99);
  EXPECT_DOUBLE_EQ(stats.wait_mean_s(), (9 * 100 + 100000) / 100.0);
}

// ---------------------------------------------------------------------------
// Execution: determinism, sharding, resume

class PlanRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cgc_plan_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::configure("");
    fs::remove_all(dir_);
  }

  std::string dir(const std::string& sub = "") const {
    return sub.empty() ? dir_.string() : (dir_ / sub).string();
  }

  /// The test workload: the 8-scenario matrix over a 1-hour horizon.
  static ScenarioMatrix matrix() { return small_matrix(3600); }

  /// Runs the whole matrix in-process and renders plan.json.
  static std::string single_process_json() {
    PlanRunner runner(matrix(), PlanConfig{});
    return render_plan_json(runner.matrix(), runner.run());
  }

  fs::path dir_;
};

TEST_F(PlanRunTest, PlanJsonIsByteIdenticalAtAnyWorkerCount) {
  std::vector<std::string> renders;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    exec::ScopedPool scoped(&pool);
    renders.push_back(single_process_json());
  }
  EXPECT_EQ(renders[0], renders[1]);
  EXPECT_EQ(renders[0], renders[2]);
  // And the artifact is non-trivial: it carries every scenario id.
  for (const ScenarioSpec& spec : matrix().scenarios) {
    EXPECT_NE(renders[0].find(scenario_id(spec)), std::string::npos);
  }
}

TEST_F(PlanRunTest, ShardedCheckpointsMergeToTheSingleProcessBytes) {
  const std::string golden = single_process_json();

  for (int i = 0; i < 2; ++i) {
    PlanConfig config;
    config.shard = sweep::ShardSpec{i, 2};
    config.out_dir = dir();
    PlanRunner runner(matrix(), config);
    runner.run();
    std::vector<util::json::Value> records;
    const sweep::LedgerInput shard = sweep::read_checkpoint(
        checkpoint_path(dir(), config.shard), &records);
    ASSERT_EQ(shard.status, util::ReadStatus::kOk);
    EXPECT_TRUE(shard.stamp.complete);
    EXPECT_EQ(shard.ids.size(), runner.owned().size());
  }
  const ScenarioMatrix m = matrix();
  EXPECT_EQ(render_plan_json(m, merge_checkpoints(m, dir())), golden);
}

TEST_F(PlanRunTest, ResumeReusesFinishedScenariosOnly) {
  PlanConfig config;
  config.out_dir = dir();
  {
    PlanRunner runner(matrix(), config);
    runner.run();
    EXPECT_EQ(runner.resumed(), 0u);
  }
  config.resume = true;
  PlanRunner runner(matrix(), config);
  const std::vector<ScenarioResult> results = runner.run();
  EXPECT_EQ(runner.resumed(), matrix().scenarios.size());
  EXPECT_EQ(results.size(), matrix().scenarios.size());
}

TEST_F(PlanRunTest, TornCheckpointIsQuarantinedAndRerun) {
  PlanConfig config;
  config.out_dir = dir();
  PlanRunner first(matrix(), config);
  first.run();
  const std::string path = checkpoint_path(dir(), config.shard);

  // Tear the checkpoint: drop the sealed tail.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(bytes.size(), 16u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() - 12);
  }
  std::vector<util::json::Value> records;
  ASSERT_EQ(sweep::read_checkpoint(path, &records).status,
            util::ReadStatus::kCorrupt);

  config.resume = true;
  PlanRunner runner(matrix(), config);
  runner.run();
  EXPECT_EQ(runner.resumed(), 0u);  // nothing trusted from the torn file
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
  const sweep::LedgerInput reread = sweep::read_checkpoint(path, &records);
  EXPECT_EQ(reread.status, util::ReadStatus::kOk);
  EXPECT_TRUE(reread.stamp.complete);
}

TEST_F(PlanRunTest, LineFormatCheckpointIsQuarantinedAndRerun) {
  // A sealed checkpoint in the retired `cgcplan v1` line format, as the
  // line-format writer produced it for this matrix: the CRC holds, but
  // the body is not JSON, so it reads as torn and the shard reruns.
  PlanConfig config;
  config.out_dir = dir();
  const std::string path = checkpoint_path(dir(), config.shard);
  {
    std::ofstream out(path, std::ios::binary);
    out << R"(cgcplan v1
matrix small 4cb6a73e0cf60ca7
shard 0/1
complete 1
R s20de3325fc2783ac 1 0.11204244043020641 0.12657770558315165 0.37387668574228883 0.40518324263393879 0.065347323681763853 0 0 0 0 5 0.375 8 0.32000000000000001 0.20000000000000001 1 0.47618037182837725 0.42000891223648146
R sf6267a7b6a32c468 1 0.12450376503607806 0.14307871373260722 0.32174095620090765 0.35723228380084038 0 0 0 0 0 4 0.5 8 0.32000000000000001 0.16 1 0.52914100140333176 0.30237687039119049
R s3493e044b75468b8 1 0.13822020546021851 0.17202617775867968 0.42976667553496856 0.44508560979738832 0.064011959771677091 0 0 0 0 5 0.375 8 0.32000000000000001 0.20000000000000001 1 0.58743587320592872 0.34046269409544377
R sdc691978feaee680 1 0.090134687432402966 0.10252064552760738 0.25696439074818045 0.27144189015962183 0 0 0 0 0 3 0.625 8 0.32000000000000001 0.12 1 0.3830724215877126 0.31325669308857684
R s338b0af5fb64e47f 1 0.2496685341877096 0.49440025582033043 0.079098299766580268 0.15402043890208006 0 0 0 0 0 6 0.25 8 0.32000000000000001 0.23999999999999999 1 1.0610912702977657 0.22618223966035519
R sf8486e6866da1241 1 0.034602899469581304 0.13073844769421747 0.021454538606728118 0.065675035119056702 0 0 0 0 0 2 0.75 8 0.32000000000000001 0.080000000000000002 1 0.14706232274572054 0.54398705600702868
R s1c7e1abd54bf40cb 1 0.26822567541225284 0.6003557022880105 0.07311519716555874 0.14836764521896839 0 0 0 0 0 7 0.125 8 0.32000000000000001 0.28000000000000003 1 1.1399591205020745 0.245622842928507
R sc8e82c38cb5b71b5 1 0.10771290022952884 0.22947258107802448 0.032821279251947999 0.058771872892975807 0 0 0 0 0 3 0.625 8 0.32000000000000001 0.12 1 0.45777982597549755 0.26213474948199866
end 13aeab1e
)";
  }
  std::vector<util::json::Value> records;
  ASSERT_EQ(sweep::read_checkpoint(path, &records).status,
            util::ReadStatus::kCorrupt);

  config.resume = true;
  PlanRunner runner(matrix(), config);
  runner.run();
  EXPECT_EQ(runner.resumed(), 0u);
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
  const sweep::LedgerInput reread = sweep::read_checkpoint(path, &records);
  ASSERT_EQ(reread.status, util::ReadStatus::kOk);
  EXPECT_TRUE(reread.stamp.complete);
  EXPECT_EQ(reread.ids.size(), matrix().scenarios.size());
}

TEST_F(PlanRunTest, ResumeAgainstADifferentMatrixIsADataError) {
  PlanConfig config;
  config.out_dir = dir();
  PlanRunner first(matrix(), config);
  first.run();

  config.resume = true;
  PlanRunner other(small_matrix(7200), config);  // different digest
  EXPECT_THROW(other.run(), util::DataError);
}

TEST_F(PlanRunTest, ScenarioFaultSiteDegradesToRecordedFailures) {
  fault::configure("plan.scenario_fail:p=1,seed=3");
  PlanRunner runner(matrix(), PlanConfig{});
  const std::vector<ScenarioResult> results = runner.run();
  ASSERT_EQ(results.size(), matrix().scenarios.size());
  for (const ScenarioResult& r : results) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error.rfind("transient: ", 0), 0u) << r.error;
  }
  // The artifact still renders — failed scenarios carry their error.
  const std::string json = render_plan_json(matrix(), results);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
}

TEST_F(PlanRunTest, CrossReplayScenariosRun) {
  // Grid-on-Cloud and Cloud-on-Grid are single scenarios, not special
  // modes: a grid workload on the heterogeneous park and vice versa.
  ScenarioSpec grid_on_cloud;
  grid_on_cloud.fleet = 4;
  grid_on_cloud.horizon = 1800;
  grid_on_cloud.workload = {{"auvergrid", 1.0}};
  grid_on_cloud.hetero_mix = 1.0;
  const ScenarioResult a = run_scenario(grid_on_cloud);
  EXPECT_TRUE(a.ok) << a.error;

  ScenarioSpec cloud_on_grid = grid_on_cloud;
  cloud_on_grid.workload = {{"google", 1.0}};
  cloud_on_grid.hetero_mix = 0.0;
  const ScenarioResult b = run_scenario(cloud_on_grid);
  EXPECT_TRUE(b.ok) << b.error;
  EXPECT_NE(a.id, b.id);
}

}  // namespace
}  // namespace cgc::plan
