// PlanRunner — executes a ScenarioMatrix through sim::ClusterSim.
//
// The execution contract mirrors cgc_report's sweep: scenarios run in
// parallel via cgc::exec (results land in matrix index order, so the
// artifact is bit-identical at any CGC_THREADS), ownership under
// --shard i/N is sweep::stable_case_hash over the scenario id (any
// subset of shards can run anywhere and the union is exactly the
// single-process run), and every 64 results the shard's sealed ledger
// checkpoint (sweep/ledger.hpp) is rewritten atomically, so a killed
// worker resumes from its last complete batch instead of restarting.
// Resume and merge follow the ledger's one taxonomy. Scenario failures
// (TransientError/DataError, including the plan.scenario_fail fault
// site) are recorded per scenario and the matrix keeps going — one
// sick scenario must not strand the other 575.
#pragma once

#include <string>
#include <vector>

#include "plan/matrix.hpp"
#include "plan/score.hpp"
#include "sweep/partition.hpp"

namespace cgc::plan {

/// Outcome of one scenario: its spec + id, and either a score (ok) or
/// the taxonomy error that stopped it.
struct ScenarioResult {
  /// The spec that ran (copied from the matrix).
  ScenarioSpec spec;
  /// scenario_id(spec), precomputed (sharding + artifact key).
  std::string id;
  /// True when the run completed and `score` is valid.
  bool ok = false;
  /// The planning metrics (valid when ok).
  ScenarioScore score;
  /// Taxonomy error message when !ok ("" otherwise).
  std::string error;
};

/// Execution settings of a PlanRunner.
struct PlanConfig {
  /// This worker's slice (default: the whole matrix).
  sweep::ShardSpec shard;
  /// Directory for the shard's checkpoint (checkpoint_path()); "" runs
  /// without checkpointing (tests, pure in-memory runs).
  std::string out_dir;
  /// Reuse finished scenarios from the shard's checkpoint per
  /// sweep::resume(): another matrix or shard is a DataError, a torn
  /// checkpoint is moved to `<path>.corrupt` and its shard re-run.
  bool resume = false;
};

/// Runs one scenario start-to-finish: builds the machine park
/// (hetero_mix of Google capacity groups + uniform grid nodes),
/// generates and merges the weighted workload components, applies the
/// priority remap, simulates on the fast path (record_events /
/// record_tasks off), and scores. Pure in `spec` — no shared state, so
/// scenarios parallelize freely. Throws taxonomy errors; the runner
/// catches transient/data ones.
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Path of shard `spec`'s sealed checkpoint under `out_dir`:
/// `plan-shard-<i>-of-<N>.cgcp`.
std::string checkpoint_path(const std::string& out_dir,
                            const sweep::ShardSpec& spec);

/// Fuses every shard checkpoint under `out_dir` into the full matrix in
/// matrix order. The inputs go through sweep::claim(), so a foreign
/// matrix or overlapping shards throw util::DataError and a torn or
/// incomplete shard or an uncovered scenario throws
/// util::TransientError.
std::vector<ScenarioResult> merge_checkpoints(const ScenarioMatrix& matrix,
                                              const std::string& out_dir);

/// Executes the shard-owned subset of a matrix (see file comment).
class PlanRunner {
 public:
  /// Binds a matrix to its execution settings.
  PlanRunner(ScenarioMatrix matrix, PlanConfig config);

  /// Runs every owned scenario (skipping resumed ones) and returns the
  /// shard's results in matrix order; callers needing the artifact go
  /// through plan_io.hpp.
  std::vector<ScenarioResult> run();

  /// The bound matrix.
  const ScenarioMatrix& matrix() const { return matrix_; }
  /// Scenarios this shard owns (matrix order).
  const std::vector<std::size_t>& owned() const { return owned_; }
  /// Scenarios satisfied from the resume checkpoint in the last run().
  std::size_t resumed() const { return resumed_; }

 private:
  ScenarioMatrix matrix_;
  PlanConfig config_;
  std::vector<std::size_t> owned_;
  std::size_t resumed_ = 0;
};

}  // namespace cgc::plan
