// Plan artifacts: shard checkpoints, merge, and plan.json rendering.
//
// Two on-disk forms:
//
//   * The shard checkpoint (`plan-shard-<i>-of-<N>.cgcp`) — a JSON
//     body (matrix name and digest, shard spec, complete flag, one row
//     per finished scenario) sealed by an `end <crc32>` line, rewritten
//     atomically after every batch. Scores are printed with 17
//     significant digits, so a double round-trips bit-exactly: merging
//     shard files yields the same bytes in plan.json as a single-process
//     run.
//   * plan.json — the canonical artifact: every scenario in matrix
//     order with its spec and score, the Pareto frontier, and the
//     $/SLO ranking. It contains no volatile fields (no timestamps,
//     no hostnames, no wall-clock), so it is byte-identical at any
//     CGC_THREADS and across sharded vs single-process execution.
//
// Merge conflict taxonomy follows cgc::sweep (DESIGN.md §14): digest
// disagreement or overlapping scenario ownership is a DataError (exit
// 2 — the inputs are from different experiments); a torn or missing
// checkpoint is a TransientError (exit 1 — rerun the shard and merge
// again).
#pragma once

#include <string>
#include <vector>

#include "plan/matrix.hpp"
#include "plan/runner.hpp"
#include "util/file.hpp"

namespace cgc::plan {

/// One shard's checkpointed results plus its identity stamp.
struct ShardResults {
  /// Matrix name stamped into the file.
  std::string matrix_name;
  /// Matrix digest stamped into the file (merge handshake).
  std::uint64_t matrix_digest = 0;
  /// The writing worker's shard spec.
  sweep::ShardSpec shard;
  /// True once the shard ran every scenario it owns.
  bool complete = false;
  /// Results in matrix order (specs re-attached from the matrix).
  std::vector<ScenarioResult> results;
};

/// Checkpoint path for shard `spec` under `out_dir`.
std::string shard_results_path(const std::string& out_dir,
                               const sweep::ShardSpec& spec);

/// Writes a shard checkpoint with util::write_file_atomic. Throws
/// util::TransientError on I/O failure.
void write_results(const std::string& path, const ShardResults& results);

/// Reads a checkpoint back, re-attaching specs from `matrix`. kCorrupt
/// means a torn write, a bad CRC, a body that does not parse, or an id
/// the matrix does not know. A digest mismatch against `matrix` is kOk
/// with the stamped digest preserved and no results — the caller
/// decides whether that is a DataError (merge) or a silent restart.
util::ReadStatus read_results(const std::string& path,
                              const ScenarioMatrix& matrix,
                              ShardResults* out);

/// Fuses shard checkpoints into the full result list in matrix order.
/// Digest mismatches and overlapping ownership throw util::DataError;
/// incomplete coverage or an incomplete shard throws
/// util::TransientError (resumable).
std::vector<ScenarioResult> merge_results(
    const ScenarioMatrix& matrix, const std::vector<ShardResults>& shards);

/// Renders the canonical plan.json (see file comment). `results` must
/// be the full matrix in matrix order.
std::string render_plan_json(const ScenarioMatrix& matrix,
                             const std::vector<ScenarioResult>& results);

/// Renders the ranked $/SLO comparison table (best first, undefined
/// costs last), truncated to `top_n` rows (0 = all).
std::string render_comparison_table(
    const std::vector<ScenarioResult>& results, std::size_t top_n);

}  // namespace cgc::plan
