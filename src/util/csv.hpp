// Minimal, fast reading/writing for the text trace tables.
//
// The trace formats we handle (Google clusterdata-style CSV, SWF, GWA)
// are plain numeric/text tables without quoting or embedded separators,
// so this module deliberately implements the simple dialect: records
// split on '\n', fields split on ',' or on runs of blanks. Parsing works
// on string_views into a reusable line buffer — zero allocations per
// field.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

namespace cgc::util {

/// Splits `line` on `sep` into `out` (cleared first). Views point into
/// `line`; they are invalidated when the underlying buffer changes.
void split_fields(std::string_view line, char sep,
                  std::vector<std::string_view>* out);

/// Splits `line` on runs of spaces and tabs into `out` (cleared first),
/// dropping leading and trailing blanks. Views point into `line`.
void split_whitespace(std::string_view line,
                      std::vector<std::string_view>* out);

/// Parses a signed integer field; throws cgc::util::DataError on garbage.
std::int64_t parse_int(std::string_view field);

/// Parses a double field; throws cgc::util::DataError on garbage.
double parse_double(std::string_view field);

/// Throws cgc::util::DataError with "path:line: what". Format readers
/// wrap field-level failures with this so a truncated or garbled record
/// (for example a final row cut off mid-write) reports the offending row
/// instead of a bare field message.
[[noreturn]] void throw_parse_error(const std::string& path,
                                    std::size_t line_number,
                                    const std::string& what);

/// How a record's fields are separated: Google's tables use commas,
/// SWF and GWA runs of spaces and tabs.
enum class Split { kComma, kWhitespace };

/// Streaming record reader over a file or a stream. Usage:
///   CsvReader r(path);
///   while (r.next_record()) { use r.fields(); }
class CsvReader {
 public:
  /// Opens `path` for reading; throws DataError naming the path if it
  /// cannot be opened.
  explicit CsvReader(const std::string& path, Split split = Split::kComma);

  /// Reads from `in` (a pipe, say), which must outlive the reader;
  /// `name` stands in for the path in messages.
  CsvReader(std::istream& in, std::string name, Split split = Split::kComma);

  /// Advances to the next non-empty, non-comment record. A trailing
  /// '\r' is stripped first; lines starting with '#' or ';' are skipped
  /// (SWF/GWA headers use ';'). A stream error (say, EISDIR when the
  /// path is a directory) throws TransientError naming the path.
  bool next_record();

  /// Fields of the current record; valid until the next next_record().
  const std::vector<std::string_view>& fields() const { return fields_; }

  /// 1-based line number of the current record (for error messages);
  /// after the last record, the number of lines read.
  std::size_t line_number() const { return line_number_; }

  /// Path this reader was opened on (for error messages).
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ifstream file_;
  std::istream& in_;
  Split split_;
  std::string line_;
  std::vector<std::string_view> fields_;
  std::size_t line_number_ = 0;
};

/// Buffered CSV writer.
class CsvWriter {
 public:
  /// Opens `path` for writing; throws TransientError if it cannot be
  /// created.
  explicit CsvWriter(const std::string& path, char sep = ',');

  /// Writes one record; values are written verbatim.
  void write_record(const std::vector<std::string>& values);

  /// Flushes and closes the file. Throws util::TransientError naming
  /// the path when any write failed (a full disk, for one), so a
  /// truncated file is never reported as written.
  void close();

 private:
  std::string path_;
  std::ofstream out_;
  char sep_;
};

/// Formats a double with enough precision to round-trip trace values
/// without inflating file sizes (up to 10 significant digits, trailing
/// zeros trimmed).
std::string format_double(double value);

}  // namespace cgc::util
