// The shard ledger: the one stamp/claim/resume policy behind cgc_report
// (figure/table cases) and cgc_plan (what-if scenarios). Both shard
// items keyed by a stable id (partition.hpp) and checkpoint them under
// a stamp; each tool keeps its own record bytes, and this module alone
// decides what a set of checkpoints means (DESIGN.md §17).
//
// Taxonomy: a foreign experiment, an already-merged input, an item its
// stamp does not own, an unknown id, or one id in two inputs is a
// util::DataError (exit 2: a human must look). A torn, missing or
// incomplete input, or an uncovered id, is a util::TransientError
// (exit 1: rerun that shard, merge again), or under allow_partial a
// note and an unclaimed item that the tool records as failed.
//
// The sealed checkpoint is the ledger's own file form: a JSON body
// (stamp + one {"id", "record"} per finished item) ended by an
// `end <crc32>` line over the body; any damage reads as kCorrupt.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sweep/partition.hpp"
#include "util/file.hpp"
#include "util/json.hpp"

namespace cgc::sweep {

/// What a checkpoint says about itself.
struct Stamp {
  /// Experiment identity (plan: the matrix digest; report: the scale).
  std::string experiment;
  ShardSpec shard;        ///< the shard that wrote it
  bool complete = false;  ///< the shard finished every item it owns
  bool merged = false;    ///< a merge's output, never a merge input
};

/// One checkpoint as its tool read it: a merge input, or the state a
/// --resume starts from.
struct LedgerInput {
  std::string path;  ///< named in every message about it
  util::ReadStatus status = util::ReadStatus::kMissing;
  Stamp stamp;                   ///< valid when status is kOk
  std::vector<std::string> ids;  ///< items it holds a record for
};

/// What claim() checks the inputs against.
struct MergePolicy {
  std::vector<std::string> universe;  ///< ids to cover, in output order
  /// Ids outside the universe that an input may still hold (a resume
  /// over a narrower set keeps them); their records are skipped.
  std::vector<std::string> known;
  std::string noun = "item";          ///< "case", "scenario" in messages
  /// Required experiment; "" adopts the first readable input's.
  std::string experiment;
  bool allow_partial = false;  ///< degrade unfinished work, never throw
};

/// Where one universe item's record is.
struct Claim {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t input = kNone;  ///< index of the holding input, or kNone
  std::size_t index = 0;      ///< position in that input's ids
};

/// The verified outcome of a merge's inputs.
struct Claims {
  std::vector<Claim> items;  ///< per universe item, same order
  std::vector<bool> usable;  ///< per input: its records count
  std::vector<std::string> notes;  ///< inputs degraded by allow_partial
};

/// Classifies merge inputs per the taxonomy above and claims every
/// universe item from them; returns only when they can be fused.
Claims claim(const std::vector<LedgerInput>& inputs,
             const MergePolicy& policy);

/// What --resume may take from one's own checkpoint `found` for a run
/// stamped `own`: true to reuse its items; false when there is none, or
/// it was torn and has been renamed to `<path>.corrupt` (named on
/// stderr). Throws util::DataError when it is another experiment's or
/// another shard's.
bool resume(const LedgerInput& found, const Stamp& own);

/// Writes a sealed checkpoint atomically: `stamp` plus one item per id
/// whose record is the JSON text `records[i]`. Throws
/// util::TransientError on I/O failure.
void write_checkpoint(const std::string& path, const Stamp& stamp,
                      const std::vector<std::string>& ids,
                      const std::vector<std::string>& records);

/// Reads a sealed checkpoint as a ledger input, each item's record into
/// `*records` (parallel to its ids). kCorrupt when the seal, the body,
/// or a stamp or item field is bad; records are the tool's to decode.
LedgerInput read_checkpoint(const std::string& path,
                            std::vector<util::json::Value>* records);

}  // namespace cgc::sweep
