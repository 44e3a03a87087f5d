// The one record loop behind every text trace reader, and its
// tolerant-parsing policy.
//
// Google's CSV tables, SWF, GWA and cgcd's task_events pipe all read
// records the same way. util::CsvReader holds the line rules: a trailing
// '\r' is stripped, blank, '#' and ';' lines are skipped, and fields
// split on commas or on whitespace. RecordLoop adds what a trace reader
// needs around them: the io.read and trace.parse_line fault sites keyed
// by line number, the records_ok count, and the policy for a malformed
// record. A format is then only a row decoder, a function from one
// record's fields to a record that throws util::DataError on a
// malformed row.
//
// The archives this repo chews are large, hand-curated, and imperfect;
// AGOCS-style processing of the real 40+GB Google trace skips and
// accounts for corrupt records instead of aborting a multi-hour parse on
// line 3 billion. The loop therefore supports two modes:
//
//   * strict (default): the first malformed record throws
//     cgc::util::DataError with "path:line: what";
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
#include <istream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

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

/// One record's split fields; valid until the loop advances.
using Fields = std::span<const std::string_view>;

/// Reads records and hands each to a row decoder. Usage:
///   RecordLoop rows(path, util::Split::kComma, options, report);
///   TaskEvent event;
///   while (rows.next(decode_task_event, &event)) use(event);
class RecordLoop {
 public:
  /// Reads `path`; throws util::Error if it cannot be opened.
  /// `report` may be null in strict mode.
  RecordLoop(const std::string& path, util::Split split,
             const ParseOptions& options, ParseReport* report);

  /// Reads `in` (a pipe, say), which must outlive the loop; `name`
  /// stands in for the path in messages.
  RecordLoop(std::istream& in, std::string name, util::Split split,
             const ParseOptions& options, ParseReport* report);

  /// Calls `decode(fields, row)` on each record until it returns true
  /// (the row holds a record), and then returns true; returns false at
  /// the end of the input. A decoder returns false for a well-formed
  /// record that carries nothing to keep. A util::Error from the decoder
  /// or from the trace.parse_line site makes the record a bad line,
  /// handled per ParseOptions; util::TransientError passes through.
  template <typename Row, typename Decode>
  bool next(Decode&& decode, Row* row) {
    while (advance()) {
      try {
        if (fault::armed()) {
          fault::maybe_throw("trace.parse_line", in_.line_number());
        }
        if (decode(Fields(in_.fields()), row)) {
          if (report_ != nullptr) {
            ++report_->records_ok;
          }
          return true;
        }
      } catch (const util::TransientError&) {
        throw;  // an I/O-class failure, not a bad record
      } catch (const util::Error& e) {
        bad_line(e.what());
      }
    }
    return false;
  }

 private:
  /// Moves to the next record; the io.read site fires for every line
  /// read, comment and blank lines included.
  bool advance();

  /// Strict mode throws "path:line: what"; tolerant mode accounts the
  /// line in the report and throws DataError once the cap is exceeded.
  void bad_line(const std::string& what);

  util::CsvReader in_;
  ParseOptions options_;
  ParseReport* report_;
  std::size_t lines_read_ = 0;
};

}  // namespace cgc::trace
