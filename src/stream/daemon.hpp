// run_daemon — the library core of cgcd, the online characterization
// daemon.
//
// Feeds a task-event stream through a SlidingWindow engine and answers
// queries about the paper's headline metrics per window. Three input
// modes:
//
//   * replay a trace file (any trace::load_trace format) at a wall-
//     clock speedup (`rate`), or unthrottled when rate <= 0;
//   * ingest Google clusterdata task_events rows from an istream pipe;
//   * self-generate a Google-model workload (hermetic smoke tests).
//
// Closed windows can be spilled durably: a JSONL summary row per window
// (with an FNV-1a digest of the canonical window state) plus the
// window's raw events as a CGCS store file. Damage — late, dropped,
// duplicated, or unparseable events, whether injected by cgc::fault or
// present in the input — is counted, reported in the summary JSON, and
// turns the exit code to 1; it never crashes the daemon.
//
// SIGTERM/SIGINT (once install_shutdown_handlers() is in place) stop
// ingest at the next batch boundary; the open window is closed and
// spilled through the normal flush path, the summary carries
// `"interrupted": true`, and the exit code stays 0 unless the stream
// was lossy — an operator's shutdown is not an error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "store/reader.hpp"
#include "stream/window.hpp"

namespace cgc::stream {

struct DaemonConfig {
  /// Trace path, or "-" for a Google task_events pipe on `in`.
  std::string input;
  /// Generate a Google-model workload instead of reading input.
  bool generate = false;
  double generate_days = 2.0;
  /// Task sampling rate of the generated workload (bench default).
  double task_sampling_rate = 0.25;
  /// Replay speedup: events are paced so trace time advances at `rate`
  /// seconds per wall second. <= 0 → unthrottled (also for pipes).
  double rate = 0.0;
  /// Events per ingest batch — the snapshot/merge granularity.
  std::size_t batch_size = 8192;
  WindowConfig window;
  /// Directory for durable spill of closed windows ("" → none).
  /// Implies window.keep_events.
  std::string spill_dir;
  /// Metrics to answer after ingest: priority_mix | job_cdf | task_cdf |
  /// submission | host_load | queue | noise | all.
  std::vector<std::string> queries;
  /// Window to query: an index, or -1 for the latest closed window.
  std::int64_t query_window = -1;
  /// Strict trace loading (default tolerant: parse damage is counted
  /// into the stream health instead of aborting).
  bool strict_load = false;
};

/// Post-run accounting (also serialized into the summary JSON).
struct DaemonStats {
  std::uint64_t events = 0;
  std::uint64_t windows_closed = 0;
  std::uint64_t windows_spilled = 0;
  double wall_seconds = 0.0;
  double events_per_second = 0.0;
  /// Ingest stopped early on a shutdown request (SIGTERM/SIGINT); the
  /// open window was still flushed and spilled.
  bool interrupted = false;
  StreamHealth health;
};

/// True for a metric name run_daemon can answer.
bool is_known_query(const std::string& metric);

/// Runs one daemon pass: ingest, flush, spill, answer queries into
/// `out` as a single JSON object. `in` is only read when config.input
/// is "-". Returns util::kExitOk, or util::kExitFailure when the run
/// was degraded (any stream damage). Throws on unusable configuration
/// or unreadable input.
int run_daemon(const DaemonConfig& config, std::istream& in,
               std::ostream& out, DaemonStats* stats = nullptr);

/// Audit of a cgcd spill directory (windows.jsonl + window-*.cgcs).
struct SpillAudit {
  std::uint64_t windows = 0;
  std::uint64_t windows_clean = 0;
  /// Fatal: the window is unusable. Non-fatal: quarantined chunks
  /// inside a still-readable store.
  std::vector<store::AuditIssue> issues;

  bool clean() const { return issues.empty(); }
  bool fatal() const {
    for (const store::AuditIssue& issue : issues) {
      if (issue.fatal) {
        return true;
      }
    }
    return false;
  }
};

/// Verifies a spill directory written by run_daemon: every manifest
/// row parses, its CGCS file exists and round-trips chunk-by-chunk
/// (degraded reads are reported, not fatal), and the stored event
/// count matches the manifest's raw_events stamp. Used by
/// `cgc_fsck --spill`. Throws util::Error only when `dir` has no
/// manifest at all.
SpillAudit verify_spill(const std::string& dir);

}  // namespace cgc::stream
