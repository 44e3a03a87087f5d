// Scenario scoring: one simulated run -> comparable numbers.
//
// A run's TraceSet (host-load samples, fast path) and SimStats (queue
// waits, evictions) reduce to a fixed set of planning metrics: how hot
// the fleet ran, how violent the scheduler was, how long work queued,
// how many machines the load actually needed at the target utilization
// (per 6-hour window), and what the consolidated fleet costs per
// delivered SLO-attaining CPU-hour under the scenario's linear
// machine-hour rate. The Pareto frontier over four of those objectives
// is the plan's headline answer; dominates() freezes the objective set.
// score_json()/parse_score() are the score's one codec: plan.json
// prints it at 10 significant digits, shard checkpoints at 17, which
// round-trips every double bit-exactly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "plan/scenario.hpp"
#include "sim/cluster_sim.hpp"
#include "trace/trace_set.hpp"
#include "util/json.hpp"

namespace cgc::plan {

/// Planning metrics of one scenario run. All values are pure functions
/// of (spec, TraceSet, SimStats) with fixed accumulation order, so a
/// score is bit-identical wherever the run executed.
struct ScenarioScore {
  /// Mean aggregate CPU usage / park CPU capacity over all samples.
  double cpu_util_mean = 0.0;
  /// Peak aggregate CPU usage / capacity (worst 5-minute sample).
  double cpu_util_peak = 0.0;
  /// Mean aggregate memory usage / park memory capacity.
  double mem_util_mean = 0.0;
  /// Peak aggregate memory usage / capacity.
  double mem_util_peak = 0.0;
  /// EVICT events per SCHEDULE event (scheduler violence).
  double eviction_rate = 0.0;
  /// Median queue wait (SimStats wait histogram; all wait quantiles
  /// are deterministic bucket upper bounds).
  double wait_p50_s = 0.0;
  /// 90th-percentile queue wait.
  double wait_p90_s = 0.0;
  /// 99th-percentile queue wait (a Pareto objective).
  double wait_p99_s = 0.0;
  /// Mean queue wait.
  double wait_mean_s = 0.0;
  /// Peak per-6h-window machines needed to carry the observed load at
  /// the scenario's target utilization (ceil).
  double machines_needed = 0.0;
  /// 1 - machines_needed / fleet: the shut-off headroom.
  double headroom = 0.0;
  /// Provisioned machine-hours (fleet x horizon).
  double machine_hours = 0.0;
  /// Cost of the full fleet at cost_per_machine_hour.
  double cost_usd = 0.0;
  /// Cost of the consolidated fleet (machines_needed x horizon).
  double consolidated_cost_usd = 0.0;
  /// Fraction of placements whose queue wait met slo_wait_s
  /// (conservative histogram lower bound).
  double slo_attainment = 0.0;
  /// CPU-hours of work actually delivered (sum of usage samples).
  double cpu_hours_delivered = 0.0;
  /// Consolidated dollars per SLO-attaining delivered CPU-hour — the
  /// cost objective. Negative (-1) when undefined (nothing delivered or
  /// zero attainment); undefined scores rank last and never dominate.
  double usd_per_slo = -1.0;
};

/// Scores a completed run. `trace` must carry host-load series (the
/// runner's fast path keeps them); throws util::DataError when it
/// carries none, because a score without load samples would be
/// fabricated.
ScenarioScore score_run(const ScenarioSpec& spec,
                        const trace::TraceSet& trace,
                        const sim::SimStats& stats);

/// Pareto dominance over the frozen objective set: maximize
/// cpu_util_mean; minimize eviction_rate, wait_p99_s and usd_per_slo.
/// True when `a` is at least as good on every objective and strictly
/// better on at least one. Undefined usd_per_slo (< 0) never dominates
/// and is dominated by any defined cost at equal-or-better remaining
/// objectives.
bool dominates(const ScenarioScore& a, const ScenarioScore& b);

/// Indices of the non-dominated scores, in input order. O(n^2) — plan
/// matrices are hundreds to thousands of points.
std::vector<std::size_t> pareto_frontier(
    const std::vector<ScenarioScore>& scores);

/// JSON object of every score field in frozen order, each printed at
/// `digits` significant digits.
std::string score_json(const ScenarioScore& score, int digits);

/// Reads an object written by score_json() back into `*score`; false
/// when any field is missing.
bool parse_score(const util::json::Value& object, ScenarioScore* score);

}  // namespace cgc::plan
