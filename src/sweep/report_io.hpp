// report.json reading/writing for the cgc_report sweep driver.
//
// The report is both the sweep's human-readable summary and its
// checkpoint: cgc_report rewrites it atomically (util::write_file_atomic)
// after every case, so a sweep killed at any point leaves a valid
// partial report on disk, and `--resume` reads it back to skip cases
// whose recorded .dat outputs still hash-match. The reader is one
// util::json::parse of the whole document: a report that does not
// parse, or has no `cases` array, is torn.
//
// Shard workers stamp their reports with `shard i/N`; stamp_of() turns
// that, the scale and the complete/merged flags into the shard ledger's
// stamp (ledger.hpp), which --merge and --resume check. The merged
// report carries `merged: true` and canonicalized per-case fields (see
// merge.hpp for the determinism argument).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/ledger.hpp"
#include "util/file.hpp"

namespace cgc::sweep {

/// One .dat file a case produced: path (relative to CGC_BENCH_OUT),
/// content hash and size. Resume re-runs the case unless every output
/// still matches.
struct CaseOutput {
  std::string file;
  std::uint32_t crc = 0;
  std::uint64_t size = 0;
};

/// Resource accounting for one case run, measured around the final
/// (successful or last) attempt. Always stamped — it does not depend on
/// CGC_METRICS/CGC_TRACE being set.
struct CasePerf {
  double wall_s = 0.0;
  double cpu_s = 0.0;            ///< user + system time of this process
  std::uint64_t max_rss_kb = 0;  ///< peak resident set (0 if unavailable)
};

struct CaseRecord {
  std::string id;
  std::string kind;
  std::string title;
  double seconds = 0.0;
  bool ok = false;
  bool resumed = false;  ///< satisfied from a previous sweep's outputs
  int attempts = 1;      ///< 1 = first try; >1 means retries happened
  std::string error;     ///< empty when ok
  CasePerf perf;
  std::vector<CaseOutput> outputs;
};

struct SweepReport {
  bool fast_mode = false;
  std::size_t threads = 0;
  std::string fault_spec;  ///< active CGC_FAULT_SPEC ("" = none)
  bool complete = false;   ///< false while the sweep is still running
  double total_seconds = 0.0;
  // Sharding stamp: written by `--shard i/N` workers (total > 1) and
  // checked at merge time so dirs from different partitions cannot be
  // silently fused. A plain single-process sweep leaves total == 1.
  int shard_index = 0;
  int shard_total = 1;
  bool merged = false;  ///< true only on the artifact --merge writes
  // Degraded-operation accounting aggregated across the sweep (store
  // quarantines + tolerant-parse losses); all zero on a healthy run.
  std::uint64_t chunks_quarantined = 0;
  std::uint64_t rows_lost = 0;
  std::uint64_t values_defaulted = 0;
  std::uint64_t parse_lines_bad = 0;
  std::vector<CaseRecord> cases;

  bool degraded() const {
    return chunks_quarantined != 0 || rows_lost != 0 ||
           values_defaulted != 0 || parse_lines_bad != 0;
  }
};

/// Writes `report` as JSON to `path` through util::write_file_atomic,
/// so readers never observe a torn file. Throws util::TransientError on
/// I/O failure.
void write_report(const SweepReport& report, const std::string& path);

/// Parses a report written by write_report(): kOk fills `out`, kMissing
/// means a fresh sweep, kCorrupt a report that is truncated, does not
/// parse, or lacks a case id or an output field — which --resume
/// (sweep::resume) moves aside to report.json.corrupt, naming it on
/// stderr, instead of trusting any of it.
util::ReadStatus read_report_checked(const std::string& path,
                                     SweepReport* out);

/// The ledger stamp a report carries: its scale ("fast scale" or "full
/// scale") as the experiment identity, its shard stamp, and its
/// complete and merged flags.
Stamp stamp_of(const SweepReport& report);

/// CRC-32 + size of a file's content (.dat series are small enough to
/// read whole). Returns false when the file cannot be read.
bool file_crc32(const std::string& path, std::uint32_t* crc,
                std::uint64_t* size);

}  // namespace cgc::sweep
