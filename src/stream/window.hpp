// SlidingWindow — the online characterization engine.
//
// Consumes a live task-event stream in batches and maintains, per
// event-time window, the paper's headline metrics:
//
//   * priority mix (Fig 2)            — CounterBank of SUBMITs
//   * job-length CDF (Fig 3)          — StreamingEcdf of job lengths
//   * task-length CDF (Fig 4's count half)
//   * submission-interval CDF (Fig 5) — StreamingEcdf + RunningStats of gaps
//   * per-host load (Fig 8b/13)       — StreamingEcdf of running tasks
//     per machine, snapshotted at window close
//   * queue state (Fig 8)             — pending/running gauges + event
//     mix, including the abnormal-termination fraction
//   * noise                           — per-window sub-bin arrival
//     counts → index of dispersion / CV of the arrival process
//
// Window semantics: event-time windows of `width` seconds sliding by
// `slide` (slide == width → tumbling; width must be a multiple of
// slide). The watermark is max(event time seen) − watermark_lag; a
// window closes when its end ≤ watermark. Events older than the oldest
// open window are *late*: dropped-and-counted by default, or absorbed
// into the oldest open window under LatePolicy::kAbsorbOldest. Closed
// windows are immutable, queryable, and optionally spilled.
//
// Panes ("No pane, no gain", Li et al. 2005): time is cut into
// slide-wide panes, and window i is the union of panes i .. i+span−1
// (span = width/slide). An event updates only its own pane — the
// CounterBank, the SUBMIT counts per rate cell, and the job-length,
// task-length and submission-gap ECDFs — and a closing window adds up
// its span panes. Every one of those merges is an exact integer add,
// so a closed window is bit-identical to feeding each window directly.
// The order-dependent accumulators (submission-gap RunningStats, the
// job-length ExtendedP2 probe), late counts absorbed into a window, and
// the keep_events lists stay per window. Consequence for observers: the
// pane-fed fields of a still-open window (find()) are empty
// until it closes; everything a closed window reports is complete.
//
// Determinism: a batch is ingested in two serial passes over its
// events — a count pass that lands every pane count, then the stateful
// task/job/host bookkeeping that advances the watermark and closes
// windows. No pass touches the thread pool, so for a fixed batching the
// engine's entire state — every sketch bit — is identical at any
// CGC_THREADS.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "stats/descriptive.hpp"
#include "stream/flat_table.hpp"
#include "stream/sketch.hpp"
#include "trace/types.hpp"
#include "util/time_util.hpp"

namespace cgc::stream {

using util::TimeSec;

/// What happens to an event older than the oldest open window.
enum class LatePolicy {
  kDrop,          ///< count it and drop it (default)
  kAbsorbOldest,  ///< count it and fold it into the oldest open window
};

struct WindowConfig {
  TimeSec width = util::kSecondsPerHour;
  /// 0 → tumbling (slide = width). width must be a multiple of slide.
  TimeSec slide = 0;
  /// Watermark lag: tolerated event-time disorder before a window
  /// closes (the Google trace's 5-minute sampling period by default).
  TimeSec watermark_lag = util::kSamplePeriod;
  LatePolicy late_policy = LatePolicy::kDrop;
  /// Relative error α of every quantile/ECDF sketch (DESIGN §12).
  double relative_error = 0.01;
  /// Arrival sub-bins per window feeding the noise metric.
  std::size_t rate_bins = 60;
  /// Closed windows retained queryable in memory (older ones are
  /// dropped after the spill hook has seen them).
  std::size_t max_closed_retained = 1024;
  /// Retain each window's raw events for the spill hook (CGCS spill
  /// needs them; costs memory, off by default).
  bool keep_events = false;
};

/// Ingest damage accounting. Everything here is counted, never fatal —
/// but a nonzero total makes the daemon exit 1 (loss is never silent).
struct StreamHealth {
  std::uint64_t late_dropped = 0;    ///< late events under kDrop
  std::uint64_t late_absorbed = 0;   ///< late events under kAbsorbOldest
  std::uint64_t faults_dropped = 0;  ///< events dropped by fault injection
  std::uint64_t faults_duplicated = 0;  ///< events doubled by injection
  std::uint64_t parse_bad_lines = 0;    ///< malformed pipe-input lines
  std::uint64_t rows_lost = 0;  ///< input-store rows in damaged row groups

  /// True when the stream lost or fabricated data (absorbed-late events
  /// are reassigned, not lost, and so do not make the stream lossy).
  bool lossy() const {
    return late_dropped != 0 || faults_dropped != 0 ||
           faults_duplicated != 0 || parse_bad_lines != 0 || rows_lost != 0;
  }
  void merge(const StreamHealth& other);
};

/// All streaming metrics for one closed (or still-open) window.
struct WindowStats {
  std::int64_t index = 0;
  TimeSec start = 0;
  TimeSec end = 0;
  bool closed = false;

  /// Per-priority × per-event-type counts (priority mix, event mix).
  CounterBank events;
  /// Lengths (s) of jobs whose last live task ended in this window.
  StreamingEcdf job_length;
  /// Run durations (s) of tasks that ended in this window.
  StreamingEcdf task_length;
  /// Gaps (s) between consecutive job submissions landing here.
  StreamingEcdf submit_gap;
  stats::RunningStats submit_gap_moments;
  /// Cheap probe quantiles of job length (the extended-P² idiom).
  ExtendedP2 job_length_probe;
  /// Running tasks per machine at window close.
  StreamingEcdf host_load;
  /// SUBMIT counts per sub-bin (noise source).
  std::vector<std::int64_t> rate_bins;

  // Queue state at window close.
  std::int64_t pending_at_close = 0;
  std::int64_t running_at_close = 0;
  std::int64_t hosts_seen = 0;

  explicit WindowStats(const WindowConfig& config = {});

  /// Index of dispersion (variance/mean) of per-bin arrival counts;
  /// 1 ≈ Poisson, > 1 bursty. 0 when no arrivals.
  double noise_dispersion() const;
  /// Coefficient of variation of per-bin arrival counts.
  double noise_cv() const;

  /// Canonical byte serialization of the full window state (bit-for-bit
  /// determinism checks; also hashed into the spill manifest).
  void append_state(std::string* out) const;

  /// Writes this window's metrics as a JSON object. `metric` selects
  /// one of priority_mix | job_cdf | task_cdf | submission | host_load |
  /// queue | noise, or "all" for every section.
  void write_json(std::ostream& out, const std::string& metric) const;
};

class SlidingWindow {
 public:
  explicit SlidingWindow(WindowConfig config);

  const WindowConfig& config() const { return config_; }

  /// Ingests one batch of events (arrival order; event times may be
  /// disordered up to the watermark lag). Windows whose end falls at or
  /// below the new watermark are closed before the call returns.
  void ingest(std::span<const trace::TaskEvent> events);

  /// Closes every still-open window (end of stream).
  void flush();

  /// Watermark (−infinity sentinel before any event): max event time
  /// seen minus the configured lag.
  TimeSec watermark() const;

  /// Closed-window access: all retained, newest last.
  const std::deque<WindowStats>& closed() const { return closed_; }
  /// Most recently closed window; nullptr before the first close.
  const WindowStats* latest() const;
  /// Window (closed or open) by index; nullptr when unknown/evicted.
  /// An open window's pane-fed fields (events, rate_bins, job_length,
  /// task_length, submit_gap) are filled in when it closes.
  const WindowStats* find(std::int64_t index) const;

  const StreamHealth& health() const { return health_; }
  std::uint64_t events_ingested() const { return events_ingested_; }
  std::uint64_t windows_closed() const { return windows_closed_; }

  /// Installed hook runs once per closed window, before eviction from
  /// the retained ring. `events` is non-empty only under keep_events.
  using SpillFn = std::function<void(const WindowStats&,
                                     std::span<const trace::TaskEvent>)>;
  void set_spill(SpillFn fn) { spill_ = std::move(fn); }

 private:
  struct JobState {
    TimeSec first_submit = 0;
    std::int64_t live = 0;
  };
  /// A task's identity: the full job id and the task index (job ids
  /// in Google clusterdata exceed 2^32).
  struct TaskKey {
    std::int64_t job_id = 0;
    std::int32_t task_index = 0;
    bool operator==(const TaskKey&) const = default;
  };
  struct TaskKeyHash {
    std::uint64_t operator()(const TaskKey& key) const {
      const auto index = static_cast<std::uint32_t>(key.task_index);
      return util::mix64(static_cast<std::uint64_t>(key.job_id) ^
                         util::mix64(index));
    }
  };
  struct TaskRun {
    TimeSec schedule_time = 0;
    std::int64_t machine_id = -1;
  };
  /// One slide-wide slice of event time, [i·slide, (i+1)·slide): the
  /// state every window covering it adds up at close.
  struct Pane {
    Pane(const WindowConfig& config, std::size_t cells);
    CounterBank events;
    /// SUBMITs per rate cell (cells are cut at every rate-bin boundary
    /// of every window covering the pane; see cell_starts_).
    std::vector<std::int64_t> rate_cells;
    StreamingEcdf job_length;
    StreamingEcdf task_length;
    StreamingEcdf submit_gap;
  };
  /// Open window i together with pane i, its first pane: window i is
  /// the last window covering pane i, so the two retire together.
  struct OpenWindow {
    WindowStats stats;
    Pane pane;
    std::vector<trace::TaskEvent> events;  ///< keep_events only
  };
  /// Rate cell of a time `offset` seconds into its pane.
  std::size_t cell_of(TimeSec offset) const;
  OpenWindow& open_window(std::int64_t index);
  void close_ready_windows();
  void close_oldest();
  /// Feeds one event to the stream state machine. `last` is the event's
  /// pane, which is also the newest window covering it.
  void advance_state(const trace::TaskEvent& event, std::int64_t last);

  WindowConfig config_;
  std::int64_t span_ = 1;  ///< panes per window, width / slide
  /// Start offsets of the rate cells within a pane, ascending from 0.
  std::vector<TimeSec> cell_starts_;
  /// Cell where rate bin b starts, in the window that begins with the
  /// pane (only bins that start inside the first pane).
  std::vector<std::size_t> first_cell_of_bin_;
  /// Rate bin of cell c in the window whose j-th pane holds it:
  /// cell_bins_[j · cells + c].
  std::vector<std::uint32_t> cell_bins_;
  std::deque<OpenWindow> open_;
  std::int64_t first_open_index_ = 0;
  bool any_open_ = false;
  std::deque<WindowStats> closed_;

  TimeSec max_event_time_ = 0;
  bool any_event_ = false;
  std::uint64_t events_ingested_ = 0;
  std::uint64_t windows_closed_ = 0;
  StreamHealth health_;

  // Stream state machine. Jobs are never pruned: a job re-submitted
  // after its live count drained to zero keeps its first submit time
  // and makes no new submission gap.
  FlatTable<std::int64_t, JobState> jobs_;
  FlatTable<TaskKey, TaskRun, TaskKeyHash> running_tasks_;
  /// Running tasks per machine; idle machines are pruned at close.
  FlatTable<std::int64_t, std::int64_t> host_running_;
  std::int64_t pending_ = 0;
  std::int64_t running_ = 0;
  TimeSec last_job_submit_ = -1;

  SpillFn spill_;
};

/// Stable per-event fault-injection key: a pure hash of the event's
/// identifying fields, independent of batching and thread count.
std::uint64_t event_fault_key(const trace::TaskEvent& event);

}  // namespace cgc::stream
