// Tolerant-parsing support shared by the trace format readers.
//
// The archives this repo chews (clusterdata CSV, SWF, GWA) are large,
// hand-curated, and imperfect; AGOCS-style processing of the real 40+GB
// Google trace skips and accounts for corrupt records instead of
// aborting a multi-hour parse on line 3 billion. Each reader therefore
// supports two modes:
//
//   * strict (default): the first malformed record throws
//     cgc::util::Error with "path:line: what" — exactly the historical
//     behavior;
//   * tolerant: malformed records are skipped and accounted in a
//     ParseReport (count + a capped sample of "path:line: what"
//     messages); exceeding ParseOptions::max_bad_lines aborts with
//     cgc::util::DataError, so a file that is mostly garbage still
//     fails loudly.
//
// I/O errors (a failing stream, an injected transient fault) are never
// tolerated — they are not properties of a record.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace cgc::trace {

struct ParseOptions {
  bool tolerant = false;
  /// Tolerant mode gives up (cgc::util::DataError) past this many bad
  /// lines per file.
  std::size_t max_bad_lines = 1000;
  /// At most this many "path:line: what" samples are kept per report.
  std::size_t max_recorded = 20;
};

struct ParseReport {
  std::size_t records_ok = 0;
  std::size_t lines_bad = 0;
  std::vector<std::string> samples;  ///< "path:line: what", capped

  bool clean() const { return lines_bad == 0; }
  /// e.g. "2 bad lines skipped (5 records parsed)".
  std::string summary() const;
};

namespace detail {

/// Dispatches one malformed record. Strict mode throws the classic
/// "path:line: what" error; tolerant mode records it into `report`
/// (which must be non-null) and returns, throwing cgc::util::DataError
/// once the cap is exceeded.
void handle_bad_line(const ParseOptions& options, ParseReport* report,
                     const std::string& path, std::size_t line_number,
                     const std::string& what);

}  // namespace detail
}  // namespace cgc::trace
