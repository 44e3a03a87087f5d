// Shard-output merge: fuse N shard dirs into the single-process
// artifact, verifying every recorded digest on the way.
//
// Classification contract (the merge's whole point):
//   * DataError  — the shards contradict each other or their own
//     records: the same case id claimed by two dirs, a .dat whose
//     content no longer matches its recorded CRC, a duplicate output
//     file with different bytes, or a shard stamp from a different
//     partition. Exit code 2 (util::kExitConflict) via
//     error::merge_exit_code(). Nothing is trustworthy; a human (or
//     the kill-matrix CI) must look.
//   * TransientError — a shard is merely *unfinished*: torn or missing
//     report, `complete: false`. Exit 1; rerun that shard with
//     --resume and merge again. With MergeOptions::allow_partial the
//     supervisor converts this into synthesized failed records instead
//     (graceful degradation after a retry budget is exhausted).
//
// Determinism: the merged report is *canonical* — cases in the
// caller-supplied expected order, volatile fields (timings, perf,
// attempts, thread counts, fault spec) zeroed, outputs sorted by file
// name — so any two merges of equivalent shard sets are byte-identical,
// and equal to the canonical merge of an uninterrupted single-process
// run. The .dat files are copied verbatim (CRC-checked), so they are
// byte-identical unconditionally.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sweep/report_io.hpp"

namespace cgc::sweep {

/// Identity of one expected case, in sweep (registry) order. The merge
/// needs the universe of cases to detect unknown ids and to synthesize
/// failed records for cases no shard completed.
struct CaseMeta {
  std::string id;
  std::string kind;
  std::string title;
};

struct MergeOptions {
  std::vector<CaseMeta> expected;  ///< full case universe, sweep order
  std::string out_dir;             ///< merged artifact destination
  /// When set, an unfinished/unreadable shard degrades the merge (its
  /// cases become failed records) instead of raising TransientError.
  bool allow_partial = false;
};

struct MergeResult {
  SweepReport report;            ///< what landed in out_dir/report.json
  std::size_t files_copied = 0;  ///< .dat files materialized
  std::size_t cases_ok = 0;
  std::size_t cases_failed = 0;    ///< failed in their shard
  std::size_t cases_missing = 0;   ///< no shard finished them
  std::vector<std::string> notes;  ///< human-readable degradations
};

/// Reduces a shard (or single-process) report to the canonical form the
/// merge emits. Exposed so tests and CI can canonicalize a golden
/// single-process report and diff it against a merged one.
SweepReport canonicalize(const SweepReport& report,
                         const std::vector<CaseMeta>& expected);

/// Merges shard dirs (each holding report.json + .dat outputs) into
/// `options.out_dir`. Throws DataError on conflicts and TransientError
/// on unfinished shards as described above. The merged report.json is
/// written last, after every output file landed — it is the commit
/// marker for the merge itself.
MergeResult merge_shards(const std::vector<std::string>& shard_dirs,
                         const MergeOptions& options);

}  // namespace cgc::sweep
