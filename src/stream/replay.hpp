// Event-stream sources for the online daemon.
//
// The SlidingWindow engine consumes trace::TaskEvent batches; this
// module turns the two kinds of input cgcd accepts into that shape:
//
//   * a loaded TraceSet (any format trace::load_trace reads) — replayed via
//     replay_trace(), which hands out the trace's own event log when it
//     has one and otherwise merges the SUBMIT/SCHEDULE/terminal triple
//     of every task record into time order batch by batch (generator
//     workloads carry tasks but no event rows), never holding the whole
//     event stream;
//   * a pipe of Google clusterdata task_events rows on stdin — read by
//     the trace loader's record loop and task_events decoder
//     (trace/parse_report.hpp), so CRLF endings and '#'/';' lines are
//     handled as in a file; malformed rows are counted into StreamHealth
//     and never fatal.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <span>
#include <vector>

#include "stream/window.hpp"
#include "trace/trace_set.hpp"

namespace cgc::stream {

/// Receives one ingest batch. The span is valid only during the call.
using BatchSink = std::function<void(std::span<const trace::TaskEvent>)>;

/// Replays `trace` as a time-sorted event stream, delivering batches of
/// exactly `batch_size` events (the last may be shorter) to `sink`.
///
/// A trace with event rows is replayed verbatim: the batches are spans
/// over trace.events() (finalize() already sorted them), no copy.
/// Otherwise every task record yields a SUBMIT, a SCHEDULE when it was
/// placed (schedule_time >= 0) and its end_event when it ended
/// (end_time >= 0) — one cycle per task; resubmission cycles are not
/// reconstructed (the Task record only keeps their count), so replayed
/// queue depths are a lower bound for traces with evictions. The
/// events come out ordered by (time, job_id, task_index), and a task's
/// events that share a second come out as submit, then schedule, then
/// the terminal event — the lifecycle order the window state machine
/// needs. That is the order of sorting on (time, job_id, task_index,
/// type) whenever those keys are unique. Requires the tasks in
/// finalize() order, ascending (job_id, task_index); CGC_CHECKs it.
///
/// Like read_event_stream, stops after the current batch once
/// shutdown_requested() is up. Returns the number of events delivered.
std::uint64_t replay_trace(const trace::TraceSet& trace,
                           std::size_t batch_size, const BatchSink& sink);

/// The whole of replay_trace's stream as one vector (for callers that
/// need it materialized, such as tests and the traced benchmark leg).
std::vector<trace::TaskEvent> synthesize_events(const trace::TraceSet& trace);

/// Streams Google-format task-event rows from `in` (typically a pipe),
/// delivering batches of up to `batch_size` events to `sink`. Lines
/// follow the trace readers' rules: a trailing '\r' is stripped, blank,
/// '#' and ';' lines are skipped. Malformed rows are skipped and counted
/// into health->parse_bad_lines (never fatal — the daemon's
/// degraded-ingest contract). Stops early (after
/// delivering the partial batch) once shutdown_requested() is up, so a
/// SIGTERM'd daemon can spill the open window and exit. Returns the
/// number of events delivered.
std::uint64_t read_event_stream(std::istream& in, std::size_t batch_size,
                                const BatchSink& sink, StreamHealth* health);

}  // namespace cgc::stream
