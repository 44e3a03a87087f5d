// cgc::trace::load_trace — the one way in for trace data.
//
//   trace::LoadOptions options;
//   options.strictness = trace::Strictness::kTolerant;
//   trace::LoadReport report;
//   trace::TraceSet ts = trace::load_trace(path, options, &report);
//
// Format is autodetected (directory → Google CSV; extension; CGCS
// magic; field-count sniff for the headerless text formats) unless
// LoadOptions::format names it. Leniency is two orthogonal fields —
// `strictness` for record-level parse damage in the text formats,
// `on_damage` for chunk-level corruption in the binary store — and
// everything the load survived is merged into one LoadReport.
#pragma once

#include <string>

#include "store/reader.hpp"
#include "trace/parse_report.hpp"
#include "trace/trace_set.hpp"

namespace cgc::trace {

/// On-disk formats load_trace understands.
enum class TraceFormat {
  kAuto,       ///< detect from path (directory, extension, magic, sniff)
  kGoogleCsv,  ///< clusterdata-2011 CSV directory
  kSwf,        ///< Standard Workload Format (Parallel Workload Archive)
  kGwa,        ///< Grid Workload Archive .gwf
  kCgcs,       ///< our columnar binary store
};

/// Human-readable name for a format ("auto", "google-csv", "swf",
/// "gwa", "cgcs").
const char* format_name(TraceFormat format);

/// Record-level leniency for the text formats (maps onto
/// ParseOptions::tolerant). kCgcs has no record-level parse stage, so
/// strictness does not apply to it.
enum class Strictness {
  kStrict,    ///< first malformed record throws DataError
  kTolerant,  ///< skip and account malformed records (bounded)
};

/// Chunk-level damage policy for the binary store (maps onto
/// store::ReadMode). Text formats have no chunk structure, so
/// on_damage does not apply to them.
enum class OnDamage {
  kFail,        ///< any damaged chunk throws DataError
  kQuarantine,  ///< drop damaged chunks, account them in the report
};

struct LoadOptions {
  TraceFormat format = TraceFormat::kAuto;
  /// System name stamped into the TraceSet; "" picks the per-format
  /// default ("google-trace"/"swf-trace"/"gwa-trace"). CGCS files carry
  /// their own name and ignore this.
  std::string system_name;
  Strictness strictness = Strictness::kStrict;
  OnDamage on_damage = OnDamage::kFail;
  /// Tolerant-mode bounds, forwarded to ParseOptions.
  std::size_t max_bad_lines = 1000;
  std::size_t max_recorded = 20;
};

/// Everything a load survived: which format was (detected and) read,
/// plus the merged record-level and chunk-level damage accounting.
/// Exactly one of `parse`/`damage` can be non-clean for a given format.
struct LoadReport {
  TraceFormat format = TraceFormat::kAuto;
  std::string path;
  ParseReport parse;
  store::DamageReport damage;

  bool clean() const { return parse.clean() && damage.clean(); }
  std::string summary() const;
};

/// Resolves kAuto for `path`: a directory is Google CSV; then by
/// extension (.cgcs/.swf/.gwf/.gwa); then by CGCS magic; then by
/// sniffing the first data line's field count (18 → SWF, ≥11 → GWA).
/// Throws cgc::util::DataError when nothing matches.
TraceFormat detect_format(const std::string& path);

/// Loads `path` per `options`. Fills `*report` (if non-null) with the
/// resolved format and damage accounting. Throws cgc::util::DataError
/// on unreadable input, on parse damage under kStrict, and on chunk
/// damage under kFail.
TraceSet load_trace(const std::string& path, const LoadOptions& options = {},
                    LoadReport* report = nullptr);

}  // namespace cgc::trace
