// Plan artifacts: plan.json and the ranked comparison table.
//
// plan.json is the canonical artifact: every scenario in matrix order
// with its spec and score, the Pareto frontier, and the $/SLO ranking.
// It contains no volatile fields (no timestamps, no hostnames, no
// wall-clock), so it is byte-identical at any CGC_THREADS and across
// sharded vs single-process execution. Shard checkpoints and their
// merge are the runner's (runner.hpp) on the shard ledger
// (sweep/ledger.hpp); this file only renders finished results.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "plan/matrix.hpp"
#include "plan/runner.hpp"

namespace cgc::plan {

/// Renders the canonical plan.json (see file comment). `results` must
/// be the full matrix in matrix order.
std::string render_plan_json(const ScenarioMatrix& matrix,
                             const std::vector<ScenarioResult>& results);

/// Renders the ranked $/SLO comparison table (best first, undefined
/// costs last), truncated to `top_n` rows (0 = all).
std::string render_comparison_table(
    const std::vector<ScenarioResult>& results, std::size_t top_n);

}  // namespace cgc::plan
