// Shard-output merge: fuse N shard dirs into the single-process
// artifact, verifying every recorded digest on the way.
//
// Which dirs may be fused, and which dir supplies each case, is the
// shard ledger's call (ledger.hpp): each dir's report.json is one
// ledger input, stamped with its scale and shard, and the ledger's
// taxonomy decides DataError (exit 2) versus TransientError (exit 1,
// or failed records under MergeOptions::allow_partial). What this
// module adds is specific to the report: it re-CRCs every recorded
// .dat before copying it (a mismatch, an unreadable output, or one
// output file with two contents is a DataError), and it writes the
// canonical report.
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
  std::vector<CaseMeta> expected;  ///< cases to merge, sweep order
  /// Other registered case ids a shard report may hold (kept by a
  /// resume over a narrower set); skipped rather than refused.
  std::vector<std::string> known;
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

/// Merges shard dirs (each holding report.json + .dat outputs) into
/// `options.out_dir`. Throws DataError on conflicts and TransientError
/// on unfinished shards as described above, before copying anything
/// when the ledger refuses the inputs. The merged report.json is
/// written last, after every output file landed — it is the commit
/// marker for the merge itself.
MergeResult merge_shards(const std::vector<std::string>& shard_dirs,
                         const MergeOptions& options);

}  // namespace cgc::sweep
