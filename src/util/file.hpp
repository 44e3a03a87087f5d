// Whole-file reads and atomic whole-file writes. Every checkpoint and
// artifact the repo publishes goes through write_file_atomic(), so a
// process killed at any point leaves the old file or the new one, never
// a torn mix; every checkpoint reader answers with ReadStatus. The
// contract is kill-and-resume, not power loss: nothing is fsynced.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

namespace cgc::util {

/// What a checkpoint or file reader found at a path.
enum class ReadStatus {
  kOk,       ///< read (and, for checkpoint readers, parsed); output filled
  kMissing,  ///< no file at the path
  kCorrupt,  ///< something is there but is unreadable, torn or foreign
};

/// Reads the whole file at `path` into `*out`. kMissing when nothing
/// exists at the path; kCorrupt when something does but cannot be read.
ReadStatus read_file(const std::string& path, std::string* out);

/// Writes `content` to `path + ".tmp"`, checks the stream after it is
/// closed, then renames it over `path`. Throws util::TransientError
/// naming the path on any failure.
void write_file_atomic(const std::string& path, std::string_view content);

/// Closes `out`, which writes `path`, and throws util::TransientError
/// naming the path when any write to it or the close failed.
void close_or_throw(std::ofstream& out, const std::string& path);

}  // namespace cgc::util
