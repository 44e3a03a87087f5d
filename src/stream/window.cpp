#include "stream/window.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <limits>
#include <optional>
#include <ostream>
#include <utility>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace cgc::stream {

namespace {

template <typename T>
void append_pod(std::string* out, const T& value) {
  const char* bytes = reinterpret_cast<const char*>(&value);
  out->append(bytes, sizeof(T));
}

/// JSON fragment for one StreamingEcdf: summary quantiles plus plot
/// points. Doubles are streamed at 12 significant digits — more than
/// the CI tolerance needs, few enough to keep query output small.
void write_sketch_json(std::ostream& out, const StreamingEcdf& sketch,
                       std::size_t max_points) {
  out << "{\"count\": " << sketch.count()
      << ", \"relative_error\": " << sketch.relative_error()
      << ", \"min\": " << sketch.min() << ", \"max\": " << sketch.max()
      << ", \"mean\": " << sketch.mean()
      << ", \"p50\": " << sketch.quantile(0.50)
      << ", \"p90\": " << sketch.quantile(0.90)
      << ", \"p99\": " << sketch.quantile(0.99) << ", \"points\": [";
  const auto points = sketch.plot_points(max_points);
  const char* sep = "";
  for (const auto& [value, f] : points) {
    out << sep << "[" << value << ", " << f << "]";
    sep = ", ";
  }
  out << "]}";
}

}  // namespace

std::uint64_t event_fault_key(const trace::TaskEvent& event) {
  using util::splitmix64;
  std::uint64_t h = splitmix64(static_cast<std::uint64_t>(event.time));
  h = splitmix64(h ^ static_cast<std::uint64_t>(event.job_id));
  h = splitmix64(h ^ static_cast<std::uint32_t>(event.task_index));
  h = splitmix64(h ^ ((static_cast<std::uint64_t>(event.type) << 8) |
                      event.priority));
  return h;
}

void StreamHealth::merge(const StreamHealth& other) {
  late_dropped += other.late_dropped;
  late_absorbed += other.late_absorbed;
  faults_dropped += other.faults_dropped;
  faults_duplicated += other.faults_duplicated;
  parse_bad_lines += other.parse_bad_lines;
  rows_lost += other.rows_lost;
}

// ---------------------------------------------------------------------------
// WindowStats
// ---------------------------------------------------------------------------

WindowStats::WindowStats(const WindowConfig& config)
    : job_length(config.relative_error),
      task_length(config.relative_error),
      submit_gap(config.relative_error),
      host_load(config.relative_error),
      rate_bins(config.rate_bins, 0) {}

double WindowStats::noise_dispersion() const {
  if (rate_bins.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const std::int64_t c : rate_bins) {
    sum += static_cast<double>(c);
  }
  if (sum == 0.0) {
    return 0.0;
  }
  const double mean = sum / static_cast<double>(rate_bins.size());
  double m2 = 0.0;
  for (const std::int64_t c : rate_bins) {
    const double d = static_cast<double>(c) - mean;
    m2 += d * d;
  }
  const double variance = m2 / static_cast<double>(rate_bins.size());
  return variance / mean;
}

double WindowStats::noise_cv() const {
  if (rate_bins.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const std::int64_t c : rate_bins) {
    sum += static_cast<double>(c);
  }
  if (sum == 0.0) {
    return 0.0;
  }
  const double mean = sum / static_cast<double>(rate_bins.size());
  double m2 = 0.0;
  for (const std::int64_t c : rate_bins) {
    const double d = static_cast<double>(c) - mean;
    m2 += d * d;
  }
  return std::sqrt(m2 / static_cast<double>(rate_bins.size())) / mean;
}

void WindowStats::append_state(std::string* out) const {
  CGC_CHECK(out != nullptr);
  append_pod(out, index);
  append_pod(out, start);
  append_pod(out, end);
  events.append_state(out);
  job_length.append_state(out);
  task_length.append_state(out);
  submit_gap.append_state(out);
  append_pod(out, static_cast<std::uint64_t>(submit_gap_moments.count()));
  append_pod(out, submit_gap_moments.mean());
  append_pod(out, submit_gap_moments.m2());
  append_pod(out, submit_gap_moments.min());
  append_pod(out, submit_gap_moments.max());
  job_length_probe.append_state(out);
  host_load.append_state(out);
  append_pod(out, static_cast<std::uint64_t>(rate_bins.size()));
  for (const std::int64_t c : rate_bins) {
    append_pod(out, c);
  }
  append_pod(out, pending_at_close);
  append_pod(out, running_at_close);
  append_pod(out, hosts_seen);
}

void WindowStats::write_json(std::ostream& out,
                             const std::string& metric) const {
  const auto previous_precision = out.precision(12);
  const bool all = metric == "all";
  out << "{\"window\": {\"index\": " << index << ", \"start\": " << start
      << ", \"end\": " << end << ", \"closed\": " << (closed ? "true" : "false")
      << ", \"events\": " << events.total() << "}";
  if (all || metric == "priority_mix") {
    const std::int64_t submits = events.total(trace::TaskEventType::kSubmit);
    out << ",\n \"priority_mix\": {\"submits\": " << submits << ", \"bands\": {";
    const char* sep = "";
    for (std::size_t b = 0; b < trace::kNumBands; ++b) {
      const auto band = static_cast<trace::PriorityBand>(b);
      const std::int64_t n = events.submits_in_band(band);
      const double frac =
          submits == 0 ? 0.0
                       : static_cast<double>(n) / static_cast<double>(submits);
      out << sep << "\"" << trace::band_name(band) << "\": " << frac;
      sep = ", ";
    }
    out << "}, \"per_priority\": [";
    sep = "";
    for (int p = trace::kMinPriority; p <= trace::kMaxPriority; ++p) {
      out << sep << events.count(p, trace::TaskEventType::kSubmit);
      sep = ", ";
    }
    out << "]}";
  }
  if (all || metric == "job_cdf") {
    out << ",\n \"job_cdf\": ";
    write_sketch_json(out, job_length, 128);
    out << ",\n \"job_probe\": {";
    const char* sep = "";
    for (std::size_t i = 0; i < job_length_probe.probes().size(); ++i) {
      out << sep << "\"p" << static_cast<int>(job_length_probe.probes()[i] * 100)
          << "\": " << job_length_probe.estimate(i);
      sep = ", ";
    }
    out << "}";
  }
  if (all || metric == "task_cdf") {
    out << ",\n \"task_cdf\": ";
    write_sketch_json(out, task_length, 128);
  }
  if (all || metric == "submission") {
    out << ",\n \"submission\": {\"count\": " << submit_gap.count()
        << ", \"mean_gap_s\": " << submit_gap_moments.mean()
        << ", \"stddev_s\": " << submit_gap_moments.stddev()
        << ", \"min_s\": " << submit_gap_moments.min()
        << ", \"max_s\": " << submit_gap_moments.max()
        << ", \"p50\": " << submit_gap.quantile(0.50)
        << ", \"p90\": " << submit_gap.quantile(0.90)
        << ", \"p99\": " << submit_gap.quantile(0.99) << "}";
  }
  if (all || metric == "host_load") {
    out << ",\n \"host_load\": {\"hosts\": " << hosts_seen << ", \"sketch\": ";
    write_sketch_json(out, host_load, 128);
    out << "}";
  }
  if (all || metric == "queue") {
    const std::int64_t terminals = events.terminals();
    const std::int64_t abnormal = events.abnormal_terminals();
    out << ",\n \"queue\": {\"pending\": " << pending_at_close
        << ", \"running\": " << running_at_close
        << ", \"submits\": " << events.total(trace::TaskEventType::kSubmit)
        << ", \"schedules\": " << events.total(trace::TaskEventType::kSchedule)
        << ", \"terminals\": " << terminals << ", \"abnormal\": " << abnormal
        << ", \"abnormal_fraction\": "
        << (terminals == 0 ? 0.0
                           : static_cast<double>(abnormal) /
                                 static_cast<double>(terminals))
        << "}";
  }
  if (all || metric == "noise") {
    std::int64_t submits = 0;
    for (const std::int64_t c : rate_bins) {
      submits += c;
    }
    out << ",\n \"noise\": {\"bins\": " << rate_bins.size()
        << ", \"submits\": " << submits << ", \"mean_per_bin\": "
        << (rate_bins.empty()
                ? 0.0
                : static_cast<double>(submits) /
                      static_cast<double>(rate_bins.size()))
        << ", \"dispersion\": " << noise_dispersion()
        << ", \"cv\": " << noise_cv() << "}";
  }
  out << "}\n";
  out.precision(previous_precision);
}

// ---------------------------------------------------------------------------
// SlidingWindow
// ---------------------------------------------------------------------------

SlidingWindow::Pane::Pane(const WindowConfig& config, std::size_t cells)
    : rate_cells(cells, 0),
      job_length(config.relative_error),
      task_length(config.relative_error),
      submit_gap(config.relative_error) {}

SlidingWindow::SlidingWindow(WindowConfig config) : config_(config) {
  if (config_.slide == 0) {
    config_.slide = config_.width;
  }
  CGC_CHECK_MSG(config_.width > 0, "window width must be positive");
  CGC_CHECK_MSG(config_.slide > 0 && config_.width % config_.slide == 0,
                "window width must be a multiple of the slide");
  CGC_CHECK_MSG(config_.watermark_lag >= 0, "watermark lag must be >= 0");
  CGC_CHECK_MSG(config_.rate_bins > 0, "need at least one rate bin");
  // Validates the sketch error bound eagerly (same check as the sketches).
  (void)stats::bucketing::log_gamma_for_error(config_.relative_error);
  span_ = config_.width / config_.slide;

  // A window's rate bin b starts ceil(b·width/bins) seconds in, and the
  // windows covering a pane start whole slides apart, so every pane is
  // cut at the same offsets: each bin start modulo the slide. Between
  // two cuts every covering window sees a single bin.
  const auto bins = static_cast<std::int64_t>(config_.rate_bins);
  std::vector<TimeSec> bin_starts;
  for (std::int64_t b = 0; b < bins; ++b) {
    bin_starts.push_back((b * config_.width + bins - 1) / bins);
    cell_starts_.push_back(bin_starts.back() % config_.slide);
  }
  std::sort(cell_starts_.begin(), cell_starts_.end());
  cell_starts_.erase(std::unique(cell_starts_.begin(), cell_starts_.end()),
                     cell_starts_.end());
  for (const TimeSec start : bin_starts) {
    if (start >= config_.slide) {
      break;
    }
    first_cell_of_bin_.push_back(static_cast<std::size_t>(
        std::lower_bound(cell_starts_.begin(), cell_starts_.end(), start) -
        cell_starts_.begin()));
  }
  cell_bins_.reserve(static_cast<std::size_t>(span_) * cell_starts_.size());
  for (std::int64_t j = 0; j < span_; ++j) {
    for (const TimeSec start : cell_starts_) {
      cell_bins_.push_back(static_cast<std::uint32_t>(
          (j * config_.slide + start) * bins / config_.width));
    }
  }
}

std::size_t SlidingWindow::cell_of(TimeSec offset) const {
  // Start at the cell where the offset's bin in the pane's own window
  // begins, then step past any later windows' cuts inside that bin. For
  // tumbling windows, and whenever the slide spans a whole number of
  // bins, cells are exactly those bins and the loop never runs.
  const auto bins = static_cast<std::int64_t>(config_.rate_bins);
  std::size_t c = first_cell_of_bin_[static_cast<std::size_t>(
      offset * bins / config_.width)];
  while (c + 1 < cell_starts_.size() && cell_starts_[c + 1] <= offset) {
    ++c;
  }
  return c;
}

TimeSec SlidingWindow::watermark() const {
  if (!any_event_) {
    return std::numeric_limits<TimeSec>::min();
  }
  return max_event_time_ - config_.watermark_lag;
}

SlidingWindow::OpenWindow& SlidingWindow::open_window(std::int64_t index) {
  if (!any_open_) {
    any_open_ = true;
    first_open_index_ = index;
  }
  CGC_CHECK_MSG(index >= first_open_index_,
                "open_window called for a closed window");
  while (first_open_index_ + static_cast<std::int64_t>(open_.size()) <=
         index) {
    const std::int64_t i =
        first_open_index_ + static_cast<std::int64_t>(open_.size());
    WindowStats ws(config_);
    ws.index = i;
    ws.start = i * config_.slide;
    ws.end = ws.start + config_.width;
    open_.push_back(OpenWindow{std::move(ws),
                               Pane(config_, cell_starts_.size()), {}});
  }
  return open_[static_cast<std::size_t>(index - first_open_index_)];
}

void SlidingWindow::ingest(std::span<const trace::TaskEvent> events) {
  // Fault filter: deterministic per-event drop/duplicate injection,
  // keyed by a stable event hash so the damage set is identical at any
  // thread count and batching.
  std::vector<trace::TaskEvent> filtered;
  if (fault::armed()) {
    filtered.reserve(events.size());
    for (const trace::TaskEvent& event : events) {
      const std::uint64_t key = event_fault_key(event);
      if (fault::inject("stream.drop", key)) {
        ++health_.faults_dropped;
        continue;
      }
      filtered.push_back(event);
      if (fault::inject("stream.dup", key)) {
        ++health_.faults_duplicated;
        filtered.push_back(event);
      }
    }
    events = filtered;
  }
  if (events.empty()) {
    close_ready_windows();
    return;
  }
  events_ingested_ += events.size();
  if (obs::metrics_enabled()) {
    static obs::Counter& ingested = obs::counter("stream.events_ingested");
    ingested.add(events.size());
  }

  // Count pass: every event's counts land in its pane before any window
  // closes in this batch. Lateness is decided against the windows open
  // at batch start: an event is late once for each covering window that
  // closed in an earlier batch. (Counting inside the state-machine pass
  // would make events behind a mid-batch close late, too.) On the first
  // batch, windowing starts at the oldest window covering the batch's
  // earliest pane.
  const TimeSec slide = config_.slide;
  if (!any_open_) {
    TimeSec earliest = std::numeric_limits<TimeSec>::max();
    for (const trace::TaskEvent& event : events) {
      earliest = std::min(earliest, event.time);
    }
    open_window(std::max<std::int64_t>(
        0, std::max<TimeSec>(0, earliest) / slide - span_ + 1));
  }
  const std::int64_t first_open = first_open_index_;
  CounterBank late;
  for (const trace::TaskEvent& event : events) {
    const TimeSec t = std::max<TimeSec>(0, event.time);
    const std::int64_t p = t / slide;
    const std::int64_t missed = std::min(p + 1, first_open) -
                                std::max<std::int64_t>(0, p - span_ + 1);
    if (missed > 0) {
      late.add(event.priority, event.type, missed);
    }
    if (p < first_open) {
      continue;
    }
    Pane& pane = open_window(p).pane;
    pane.events.add(event.priority, event.type);
    if (event.type == trace::TaskEventType::kSubmit) {
      ++pane.rate_cells[cell_of(t - p * slide)];
    }
  }
  if (late.total() != 0) {
    const auto n = static_cast<std::uint64_t>(late.total());
    if (config_.late_policy == LatePolicy::kAbsorbOldest) {
      health_.late_absorbed += n;
      // Reassigned, not lost: counts land in the oldest open window
      // (its rate bins are left alone — noise reflects on-time
      // arrivals only).
      open_window(first_open_index_).stats.events.merge(late);
    } else {
      health_.late_dropped += n;
      if (obs::metrics_enabled()) {
        static obs::Counter& late_dropped = obs::counter("stream.late_dropped");
        late_dropped.add(n);
      }
    }
  }

  // State-machine pass: the task/job/host bookkeeping, in arrival
  // order. The watermark advances per event and windows close
  // the moment it passes their end, so the queue/host snapshot in a
  // closed window reflects the stream state at that point — not the
  // end of the batch.
  for (const trace::TaskEvent& event : events) {
    const TimeSec t = std::max<TimeSec>(0, event.time);
    if (!any_event_ || t > max_event_time_) {
      max_event_time_ = t;
      any_event_ = true;
      close_ready_windows();
    }
    advance_state(event, t / slide);
  }
  if (obs::metrics_enabled()) {
    static obs::Gauge& open_windows = obs::gauge("stream.open_windows");
    open_windows.set(static_cast<std::int64_t>(open_.size()));
  }
}

void SlidingWindow::advance_state(const trace::TaskEvent& event,
                                     std::int64_t last) {
  const TimeSec t = std::max<TimeSec>(0, event.time);
  // The still-open windows covering t: first .. last, where `last` is
  // the event's pane. Window `last` retires together with pane `last`,
  // so the pane is live exactly when the range is non-empty; otherwise
  // the event is late for every window and its counts already say so.
  const std::int64_t oldest = std::max<std::int64_t>(0, last - span_ + 1);
  const std::int64_t first =
      any_open_ ? std::max(oldest, first_open_index_) : oldest;
  const auto live_pane = [&]() -> Pane* {
    return first <= last ? &open_window(last).pane : nullptr;
  };
  if (config_.keep_events) {
    for (std::int64_t w = first; w <= last; ++w) {
      open_window(w).events.push_back(event);
    }
  }
  switch (event.type) {
    case trace::TaskEventType::kSubmit: {
      ++pending_;
      const auto [job, inserted] = jobs_.try_emplace(event.job_id);
      if (inserted) {
        job->first_submit = t;
        if (last_job_submit_ >= 0) {
          const auto gap = static_cast<double>(
              std::max<TimeSec>(0, t - last_job_submit_));
          if (Pane* pane = live_pane()) {
            pane->submit_gap.add(gap);
          }
          for (std::int64_t w = first; w <= last; ++w) {
            open_window(w).stats.submit_gap_moments.add(gap);
          }
        }
        last_job_submit_ = t;
      }
      ++job->live;
      break;
    }
    case trace::TaskEventType::kSchedule: {
      pending_ = std::max<std::int64_t>(0, pending_ - 1);
      ++running_;
      *running_tasks_.try_emplace({event.job_id, event.task_index}).first =
          TaskRun{t, event.machine_id};
      if (event.machine_id >= 0) {
        ++*host_running_.try_emplace(event.machine_id).first;
      }
      break;
    }
    case trace::TaskEventType::kUpdate:
      break;
    default: {  // terminal: EVICT/FAIL/FINISH/KILL/LOST
      if (const std::optional<TaskRun> run =
              running_tasks_.take({event.job_id, event.task_index})) {
        running_ = std::max<std::int64_t>(0, running_ - 1);
        if (Pane* pane = live_pane()) {
          pane->task_length.add(static_cast<double>(
              std::max<TimeSec>(0, t - run->schedule_time)));
        }
        if (run->machine_id >= 0) {
          std::int64_t* host = host_running_.find(run->machine_id);
          if (host != nullptr && *host > 0) {
            --*host;
          }
        }
      } else {
        // Terminal without a live placement: the task died from pending
        // (or its SCHEDULE was lost); no run-duration sample.
        pending_ = std::max<std::int64_t>(0, pending_ - 1);
      }
      JobState* job = jobs_.find(event.job_id);
      if (job != nullptr && job->live > 0 && --job->live == 0) {
        const auto length = static_cast<double>(
            std::max<TimeSec>(0, t - job->first_submit));
        if (Pane* pane = live_pane()) {
          pane->job_length.add(length);
        }
        for (std::int64_t w = first; w <= last; ++w) {
          open_window(w).stats.job_length_probe.add(length);
        }
      }
      break;
    }
  }
}

void SlidingWindow::close_ready_windows() {
  const TimeSec wm = watermark();
  while (any_open_ && !open_.empty() && open_.front().stats.end <= wm) {
    close_oldest();
  }
}

void SlidingWindow::close_oldest() {
  CGC_CHECK(!open_.empty());
  const std::uint64_t t0 = obs::metrics_enabled() ? obs::now_ns() : 0;
  OpenWindow closing = std::move(open_.front());
  open_.pop_front();
  ++first_open_index_;
  WindowStats& ws = closing.stats;

  // Add up the window's panes: its own (retired with it) and the next
  // span − 1, as far as they exist. Exact integer adds throughout. The
  // window's ECDFs are pane-fed only, so they start as its own pane's.
  ws.job_length = std::move(closing.pane.job_length);
  ws.task_length = std::move(closing.pane.task_length);
  ws.submit_gap = std::move(closing.pane.submit_gap);
  const std::size_t cells = cell_starts_.size();
  for (std::int64_t j = 0; j < span_; ++j) {
    if (j > static_cast<std::int64_t>(open_.size())) {
      break;
    }
    const Pane& pane =
        j == 0 ? closing.pane : open_[static_cast<std::size_t>(j - 1)].pane;
    ws.events.merge(pane.events);
    if (j > 0) {
      ws.job_length.merge(pane.job_length);
      ws.task_length.merge(pane.task_length);
      ws.submit_gap.merge(pane.submit_gap);
    }
    const std::uint32_t* bins =
        cell_bins_.data() + static_cast<std::size_t>(j) * cells;
    for (std::size_t c = 0; c < cells; ++c) {
      ws.rate_bins[bins[c]] += pane.rate_cells[c];
    }
  }

  // Snapshot queue and host state. Gauges are as-of the close, i.e. the
  // last ingest batch boundary at or past the window end — snapshot
  // granularity is the batch, documented in DESIGN §12.
  ws.pending_at_close = pending_;
  ws.running_at_close = running_;
  std::int64_t hosts = 0;
  host_running_.erase_if([&](std::int64_t, std::int64_t running) {
    if (running <= 0) {
      return true;  // prune idle hosts
    }
    ++hosts;
    ws.host_load.add_n(static_cast<double>(running), 1);
    return false;
  });
  ws.hosts_seen = hosts;
  ws.closed = true;

  ++windows_closed_;
  if (spill_) {
    spill_(ws, closing.events);
  }
  closed_.push_back(std::move(ws));
  while (closed_.size() > config_.max_closed_retained) {
    closed_.pop_front();
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& closed_count = obs::counter("stream.windows_closed");
    closed_count.add(1);
    static obs::Histogram& close_ns =
        obs::histogram("stream.window_close_ns");
    close_ns.observe(obs::now_ns() - t0);
  }
}

void SlidingWindow::flush() {
  while (!open_.empty()) {
    close_oldest();
  }
}

const WindowStats* SlidingWindow::latest() const {
  return closed_.empty() ? nullptr : &closed_.back();
}

const WindowStats* SlidingWindow::find(std::int64_t index) const {
  if (!closed_.empty() && index >= closed_.front().index &&
      index <= closed_.back().index) {
    return &closed_[static_cast<std::size_t>(index - closed_.front().index)];
  }
  if (any_open_ && index >= first_open_index_ &&
      index < first_open_index_ + static_cast<std::int64_t>(open_.size())) {
    return &open_[static_cast<std::size_t>(index - first_open_index_)].stats;
  }
  return nullptr;
}

}  // namespace cgc::stream
