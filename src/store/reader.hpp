// CGCS reader: memory-maps a .cgcs file and exposes
//   * zero-copy spans over raw columns (floats/bytes point straight
//     into the mapping — no decode, no allocation),
//   * load_trace_set(): full TraceSet materialization with row-group
//     decoding fanned out over cgc::exec (one chunk of work per row
//     group, stitched into place in row order),
//   * scan(): predicate-pushdown scan over the events section that
//     skips whole chunks via zone maps before touching their bytes.
//
// Validation: header/trailer magic, format version, footer CRC and
// bounds are checked at open; each chunk's CRC-32 is checked once on
// first access. Corrupted or truncated files throw cgc::util::DataError
// in strict mode. In degraded mode (ReadMode::kDegraded) damaged chunks
// are quarantined instead: scans skip the row groups they belong to,
// load_trace_set() drops (tasks/events) or zero-fills (small sections)
// the affected rows, and the per-reader DamageReport accounts for every
// chunk skipped, row lost, and byte range affected. Structural damage —
// header, trailer, or footer — is unrecoverable in either mode because
// without the directory there is nothing to quarantine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/cgcs_format.hpp"
#include "store/mmap_file.hpp"
#include "trace/trace_set.hpp"
#include "util/mutex.hpp"

namespace cgc::store {

/// How a reader treats damaged chunks.
enum class ReadMode {
  kStrict,    ///< any damage throws cgc::util::DataError
  kDegraded,  ///< quarantine, continue, account in damage()
};

/// One quarantined chunk: where it lived and why it was rejected.
struct QuarantinedChunk {
  SectionId section = SectionId::kJobs;
  ColumnId column = ColumnId::kJobId;
  std::uint64_t offset = 0;        ///< byte range start of the payload
  std::uint64_t payload_size = 0;  ///< byte range length
  std::uint64_t row_begin = 0;
  std::uint64_t row_count = 0;
  std::string reason;
};

/// What a degraded read lost. rows_lost counts tasks/events rows whose
/// row group was dropped; values_defaulted counts rows of small-section
/// columns (jobs/machines/host-load) that were zero-filled because
/// their chunk was quarantined. `refused` lists the chunks the load
/// refuses in either mode (index_row_groups); only verify_all() fills it.
struct DamageReport {
  std::vector<QuarantinedChunk> chunks;
  std::vector<QuarantinedChunk> refused;
  std::uint64_t rows_lost = 0;
  std::uint64_t values_defaulted = 0;

  bool clean() const { return chunks.empty() && refused.empty(); }
  std::size_t chunks_quarantined() const { return chunks.size(); }
  /// One-line human summary, e.g. "3 chunks quarantined, 131072 rows
  /// lost, 0 values defaulted" (plus ", 1 refused" when any is).
  std::string summary() const;
};

/// One finding of a directory audit over store files (a cgcd spill
/// directory or a sweep's trace cache; see cgc_fsck --spill/--cache).
struct AuditIssue {
  std::string path;
  std::string what;
  /// Fatal: the file is unusable (unreadable store, bad manifest row,
  /// count mismatch). Non-fatal: damaged but degradable, or litter.
  bool fatal = false;
};

/// Summary of an open store file.
struct StoreInfo {
  std::string system_name;
  util::TimeSec duration = 0;
  bool memory_in_mb = false;
  std::uint64_t num_jobs = 0;
  std::uint64_t num_tasks = 0;
  std::uint64_t num_events = 0;
  std::uint64_t num_machines = 0;
  std::uint64_t num_hostload_series = 0;
  std::uint64_t num_hostload_samples = 0;
  std::uint64_t file_size = 0;
  std::size_t num_chunks = 0;
};

/// Range predicate over task events; unset bounds are open. Chunks whose
/// zone maps cannot intersect the bounds are skipped without decoding.
struct EventPredicate {
  std::optional<util::TimeSec> time_min;
  std::optional<util::TimeSec> time_max;
  std::optional<std::int64_t> job_id_min;
  std::optional<std::int64_t> job_id_max;

  bool matches(const trace::TaskEvent& e) const {
    return (!time_min || e.time >= *time_min) &&
           (!time_max || e.time <= *time_max) &&
           (!job_id_min || e.job_id >= *job_id_min) &&
           (!job_id_max || e.job_id <= *job_id_max);
  }
};

/// What a scan did — chunks_skipped measures zone-map pushdown.
struct ScanStats {
  std::size_t row_groups_total = 0;
  std::size_t row_groups_scanned = 0;
  std::size_t rows_decoded = 0;
  std::size_t rows_matched = 0;
};

class StoreReader {
 public:
  /// Opens and validates `path`; throws cgc::util::DataError naming the
  /// reason and the path on a missing or structurally damaged file
  /// (header/trailer/footer). In strict mode chunk-level damage also
  /// throws (cgc::util::DataError), on first access; in degraded mode
  /// it is quarantined and accounted in damage().
  explicit StoreReader(const std::string& path,
                       ReadMode mode = ReadMode::kStrict);
  ~StoreReader();

  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  const StoreInfo& info() const { return info_; }
  const std::string& path() const { return file_.path(); }
  const std::vector<ChunkMeta>& chunks() const { return chunks_; }
  ReadMode mode() const { return mode_; }

  /// Damage quarantined so far (grows as scans touch damaged chunks;
  /// a given chunk is recorded once). Empty in strict mode until
  /// verify_all() runs.
  DamageReport damage() const;

  /// Verifies every directory chunk (bounds + CRC, memoized) without
  /// throwing and returns damage(), which then lists every damaged
  /// chunk of the file, and `refused` with the load's reasons. Damaged
  /// chunks are quarantined in either mode, so a strict reader throws
  /// on a later access to one. cgc_fsck and the spill and cache audits
  /// sweep whole files with this.
  DamageReport verify_all() const;

  /// Zero-copy span over a raw f32 chunk (points into the mmap; valid
  /// for the reader's lifetime). CRC is verified on first access.
  std::span<const float> f32_span(const ChunkMeta& chunk) const;
  /// Zero-copy span over a raw u8 chunk.
  std::span<const std::uint8_t> u8_span(const ChunkMeta& chunk) const;
  /// Decodes an integer chunk (varint or delta+varint) into `out`.
  void decode_i64(const ChunkMeta& chunk,
                  std::vector<std::int64_t>* out) const;

  /// Materializes the full TraceSet. Row groups decode in parallel via
  /// cgc::exec (each group owns a disjoint row range, so the fan-out is
  /// race free and the result independent of the thread count); the
  /// result is finalized and ready for analyzers. Degraded mode drops
  /// damaged tasks/events row groups (the arrays are compacted) and
  /// zero-fills damaged small-section columns, accounting both in
  /// damage().
  trace::TraceSet load_trace_set() const;

  /// Streams events matching `predicate` to `fn`, one span per row
  /// group, in file order. Row groups whose time/job_id zone maps fall
  /// outside the predicate are skipped without decoding; surviving
  /// groups decode in parallel through the same row-group decoder as
  /// load_trace_set(), under the same degraded rule. `fn` is invoked
  /// serially.
  ScanStats scan(
      const EventPredicate& predicate,
      const std::function<void(std::span<const trace::TaskEvent>)>& fn) const;

 private:
  /// The column chunks of one tasks or events row group, by ColumnId.
  struct RowGroup {
    std::uint64_t row_begin = 0;
    std::uint64_t row_count = 0;
    const ChunkMeta* cols[kNumColumnIds] = {};
    /// Column `id`'s chunk; every schema column is present once
    /// index_row_groups() found nothing to refuse.
    const ChunkMeta& col(ColumnId id) const {
      return *cols[static_cast<std::size_t>(id)];
    }
  };

  std::span<const std::uint8_t> payload(const ChunkMeta& chunk) const;
  void parse_footer();
  void validate_chunks();
  /// Builds the row groups and applies the load's structural rule once,
  /// at open: each chunk is a column the schema (store/schema.hpp) gives
  /// its section, with its encoding, and each tasks/events row group
  /// holds every column at the group's row count. Fills refused_.
  void index_row_groups();
  /// Throws cgc::util::DataError with refused_'s first reason.
  void require_loadable() const;
  /// The row groups of `section` (tasks or events), by row_begin.
  const std::vector<RowGroup>& row_groups(SectionId section) const {
    return section == SectionId::kTasks ? task_groups_ : event_groups_;
  }
  /// The degraded rule for tasks/events row groups: true (drop the
  /// group) when any of its chunks is damaged. Every chunk is checked,
  /// so damage() records all of them, and the group's rows are added
  /// to rows_lost. Always false in strict mode, where the decode
  /// itself throws on damage.
  bool drop_damaged(const RowGroup& g) const;
  /// Decodes row group `g` of schema section `Section` (tasks or
  /// events) into dst[0, g.row_count): every column's chunk is decoded
  /// once, then one pass over the rows fills each record.
  template <typename Section>
  void decode_rows(const RowGroup& g, typename Section::row* dst) const;
  /// Verifies one directory chunk without throwing; a failure
  /// quarantines it.
  bool chunk_ok(const ChunkMeta& chunk) const noexcept;
  /// Directory index of `chunk`, or npos for a copy from outside.
  std::size_t chunk_index(const ChunkMeta& chunk) const;
  /// "" when the chunk's payload verifies (fault injection, CRC, and
  /// the range of event-type columns), else the reason it does not.
  /// Memoizes success for directory chunks.
  std::string verify_payload(const ChunkMeta& chunk) const;
  void quarantine(const ChunkMeta& chunk, const std::string& reason) const;

  MmapFile file_;
  ReadMode mode_ = ReadMode::kStrict;
  StoreInfo info_;
  std::uint64_t footer_offset_ = 0;
  /// (machine_id, start, period, sample_count) per host-load series.
  struct SeriesMeta {
    std::int64_t machine_id = 0;
    util::TimeSec start = 0;
    util::TimeSec period = 0;
    std::uint64_t samples = 0;
  };
  std::vector<SeriesMeta> series_;
  std::vector<ChunkMeta> chunks_;
  std::vector<RowGroup> task_groups_;
  std::vector<RowGroup> event_groups_;
  std::vector<QuarantinedChunk> refused_;
  /// One flag per chunk: payload verified. First access verifies;
  /// races are benign (both sides compute the same answer).
  mutable std::vector<std::atomic<bool>> payload_checked_;
  /// One flag per chunk: known damaged (bounds at open, payload check
  /// on access).
  mutable std::vector<std::atomic<bool>> chunk_bad_;
  mutable util::Mutex damage_mutex_;
  mutable DamageReport damage_ CGC_GUARDED_BY(damage_mutex_);
};

/// Convenience one-shot: open, materialize, close.
trace::TraceSet read_cgcs(const std::string& path);

/// Degraded one-shot: open in ReadMode::kDegraded, materialize what
/// survives, report what did not via `damage` (if non-null).
trace::TraceSet read_cgcs_degraded(const std::string& path,
                                   DamageReport* damage = nullptr);

}  // namespace cgc::store
