// SlidingWindow engine tests: window semantics (tumbling, overlapping,
// watermark, late policy), streaming-vs-batch agreement on a generated
// workload within the sketch error bound, bit-identical state across
// CGC_THREADS, deterministic degradation under fault injection, and the
// pane engine against a per-window reference implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <random>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/parallel.hpp"
#include "fault/fault.hpp"
#include "gen/google_model.hpp"
#include "stats/ecdf.hpp"
#include "stream/replay.hpp"
#include "stream/window.hpp"
#include "trace/trace_set.hpp"
#include "util/thread_pool.hpp"

namespace cgc {
namespace {

using stream::LatePolicy;
using stream::SlidingWindow;
using stream::WindowConfig;
using stream::WindowStats;
using trace::TaskEvent;
using trace::TaskEventType;

TaskEvent make_event(util::TimeSec time, TaskEventType type,
                     std::int64_t job_id, std::int32_t task_index,
                     int priority = 1, std::int64_t machine_id = -1) {
  TaskEvent e;
  e.time = time;
  e.type = type;
  e.job_id = job_id;
  e.task_index = task_index;
  e.priority = static_cast<std::uint8_t>(priority);
  e.machine_id = machine_id;
  return e;
}

/// Canonical state of every closed window, concatenated.
std::string closed_state(const SlidingWindow& engine) {
  std::string bytes;
  for (const WindowStats& ws : engine.closed()) {
    ws.append_state(&bytes);
  }
  return bytes;
}

/// Per-window reference engine: every event updates every window that
/// covers it, one window at a time. Same semantics as SlidingWindow —
/// watermark, late policy per window assignment, counts applied at batch
/// start, samples in arrival order — with none of the pane machinery, so
/// the two must agree byte for byte on every closed window. Serial, no
/// fault filter, no metrics, no retained-window ring.
class PerWindowReference {
 public:
  explicit PerWindowReference(WindowConfig config) : config_(config) {
    if (config_.slide == 0) {
      config_.slide = config_.width;
    }
  }

  void ingest(std::span<const TaskEvent> events) {
    if (events.empty()) {
      close_ready();
      return;
    }
    struct Delta {
      stream::CounterBank bank;
      std::vector<std::int64_t> bins;
    };
    std::map<std::int64_t, Delta> deltas;
    const auto bins = static_cast<std::int64_t>(config_.rate_bins);
    for (const TaskEvent& event : events) {
      const util::TimeSec t = std::max<util::TimeSec>(0, event.time);
      for (std::int64_t w = first_window_of(t); w <= window_of(t); ++w) {
        Delta& delta = deltas[w];
        delta.bank.add(event.priority, event.type);
        if (event.type == TaskEventType::kSubmit) {
          delta.bins.resize(config_.rate_bins, 0);
          ++delta.bins[static_cast<std::size_t>(std::min<std::int64_t>(
              bins - 1, (t - w * config_.slide) * bins / config_.width))];
        }
      }
    }
    for (auto& [w, delta] : deltas) {
      if (any_open_ && w < first_open_) {
        if (config_.late_policy == LatePolicy::kAbsorbOldest) {
          late_absorbed += static_cast<std::uint64_t>(delta.bank.total());
          open_window(first_open_).stats.events.merge(delta.bank);
        } else {
          late_dropped += static_cast<std::uint64_t>(delta.bank.total());
        }
        continue;
      }
      WindowStats& ws = open_window(w).stats;
      ws.events.merge(delta.bank);
      for (std::size_t b = 0; b < delta.bins.size(); ++b) {
        ws.rate_bins[b] += delta.bins[b];
      }
    }
    for (const TaskEvent& event : events) {
      const util::TimeSec t = std::max<util::TimeSec>(0, event.time);
      if (!any_event_ || t > max_time_) {
        max_time_ = t;
        any_event_ = true;
        close_ready();
      }
      apply(event, t);
    }
  }

  void flush() {
    while (!open_.empty()) {
      close_oldest();
    }
  }

  std::vector<std::string> closed_states;
  std::vector<std::vector<TaskEvent>> closed_events;
  std::uint64_t late_dropped = 0;
  std::uint64_t late_absorbed = 0;

 private:
  struct Open {
    WindowStats stats;
    std::vector<TaskEvent> events;
  };

  std::int64_t window_of(util::TimeSec t) const { return t / config_.slide; }
  std::int64_t first_window_of(util::TimeSec t) const {
    return std::max<std::int64_t>(
        0, window_of(t) - config_.width / config_.slide + 1);
  }

  Open& open_window(std::int64_t index) {
    if (!any_open_) {
      any_open_ = true;
      first_open_ = index;
    }
    while (first_open_ + static_cast<std::int64_t>(open_.size()) <= index) {
      const std::int64_t i = first_open_ + static_cast<std::int64_t>(open_.size());
      Open window{WindowStats(config_), {}};
      window.stats.index = i;
      window.stats.start = i * config_.slide;
      window.stats.end = window.stats.start + config_.width;
      open_.push_back(std::move(window));
    }
    return open_[static_cast<std::size_t>(index - first_open_)];
  }

  /// Calls fn(window) for every still-open window covering t.
  template <typename Fn>
  void for_open_windows(util::TimeSec t, Fn&& fn) {
    for (std::int64_t w = first_window_of(t); w <= window_of(t); ++w) {
      if (!any_open_ || w >= first_open_) {
        fn(open_window(w));
      }
    }
  }

  void apply(const TaskEvent& event, util::TimeSec t) {
    if (config_.keep_events) {
      for_open_windows(t, [&](Open& w) { w.events.push_back(event); });
    }
    const std::pair<std::int64_t, std::int32_t> task(event.job_id,
                                                     event.task_index);
    switch (event.type) {
      case TaskEventType::kSubmit: {
        ++pending_;
        auto [it, inserted] = jobs_.try_emplace(event.job_id);
        if (inserted) {
          it->second.first = t;
          if (last_submit_ >= 0) {
            const auto gap = static_cast<double>(
                std::max<util::TimeSec>(0, t - last_submit_));
            for_open_windows(t, [&](Open& w) {
              w.stats.submit_gap.add(gap);
              w.stats.submit_gap_moments.add(gap);
            });
          }
          last_submit_ = t;
        }
        ++it->second.live;
        break;
      }
      case TaskEventType::kSchedule:
        pending_ = std::max<std::int64_t>(0, pending_ - 1);
        ++running_;
        running_tasks_[task] = {t, event.machine_id};
        if (event.machine_id >= 0) {
          ++hosts_[event.machine_id];
        }
        break;
      case TaskEventType::kUpdate:
        break;
      default: {
        const auto it = running_tasks_.find(task);
        if (it != running_tasks_.end()) {
          running_ = std::max<std::int64_t>(0, running_ - 1);
          const auto run = static_cast<double>(
              std::max<util::TimeSec>(0, t - it->second.first));
          for_open_windows(t, [&](Open& w) { w.stats.task_length.add(run); });
          if (it->second.second >= 0) {
            auto host = hosts_.find(it->second.second);
            if (host != hosts_.end() && host->second > 0) {
              --host->second;
            }
          }
          running_tasks_.erase(it);
        } else {
          pending_ = std::max<std::int64_t>(0, pending_ - 1);
        }
        auto job = jobs_.find(event.job_id);
        if (job != jobs_.end() && job->second.live > 0 &&
            --job->second.live == 0) {
          const auto length = static_cast<double>(
              std::max<util::TimeSec>(0, t - job->second.first));
          for_open_windows(t, [&](Open& w) {
            w.stats.job_length.add(length);
            w.stats.job_length_probe.add(length);
          });
        }
        break;
      }
    }
  }

  void close_ready() {
    const util::TimeSec wm = max_time_ - config_.watermark_lag;
    while (any_event_ && !open_.empty() && open_.front().stats.end <= wm) {
      close_oldest();
    }
  }

  void close_oldest() {
    Open window = std::move(open_.front());
    open_.pop_front();
    ++first_open_;
    WindowStats& ws = window.stats;
    ws.pending_at_close = pending_;
    ws.running_at_close = running_;
    for (auto it = hosts_.begin(); it != hosts_.end();) {
      if (it->second > 0) {
        ++ws.hosts_seen;
        ws.host_load.add_n(static_cast<double>(it->second), 1);
        ++it;
      } else {
        it = hosts_.erase(it);
      }
    }
    ws.closed = true;
    closed_states.emplace_back();
    ws.append_state(&closed_states.back());
    closed_events.push_back(std::move(window.events));
  }

  struct Job {
    util::TimeSec first = 0;
    std::int64_t live = 0;
  };

  WindowConfig config_;
  std::deque<Open> open_;
  std::int64_t first_open_ = 0;
  bool any_open_ = false;
  util::TimeSec max_time_ = 0;
  bool any_event_ = false;
  std::unordered_map<std::int64_t, Job> jobs_;
  std::map<std::pair<std::int64_t, std::int32_t>,
           std::pair<util::TimeSec, std::int64_t>>
      running_tasks_;
  std::unordered_map<std::int64_t, std::int64_t> hosts_;
  std::int64_t pending_ = 0;
  std::int64_t running_ = 0;
  util::TimeSec last_submit_ = -1;
};

/// What a run leaves behind: every closed window's canonical state and
/// raw events (in close order, through the spill hook) plus late counts.
struct RunRecord {
  std::vector<std::string> states;
  std::vector<std::vector<TaskEvent>> events;
  std::uint64_t late_dropped = 0;
  std::uint64_t late_absorbed = 0;
};

RunRecord run_engine(const WindowConfig& config,
                     std::span<const TaskEvent> events, std::size_t batch) {
  SlidingWindow engine(config);
  RunRecord record;
  engine.set_spill([&record](const WindowStats& ws,
                             std::span<const TaskEvent> kept) {
    record.states.emplace_back();
    ws.append_state(&record.states.back());
    record.events.emplace_back(kept.begin(), kept.end());
  });
  for (std::size_t i = 0; i < events.size(); i += batch) {
    engine.ingest(events.subspan(i, std::min(batch, events.size() - i)));
  }
  engine.flush();
  record.late_dropped = engine.health().late_dropped;
  record.late_absorbed = engine.health().late_absorbed;
  return record;
}

RunRecord run_reference(const WindowConfig& config,
                        std::span<const TaskEvent> events, std::size_t batch) {
  PerWindowReference reference(config);
  for (std::size_t i = 0; i < events.size(); i += batch) {
    reference.ingest(events.subspan(i, std::min(batch, events.size() - i)));
  }
  reference.flush();
  return RunRecord{std::move(reference.closed_states),
                   std::move(reference.closed_events),
                   reference.late_dropped, reference.late_absorbed};
}

bool same_events(const std::vector<TaskEvent>& a,
                 const std::vector<TaskEvent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TaskEvent& x, const TaskEvent& y) {
                      return x.time == y.time && x.type == y.type &&
                             x.job_id == y.job_id &&
                             x.task_index == y.task_index;
                    });
}

void expect_same_run(const RunRecord& engine, const RunRecord& reference,
                     const std::string& label) {
  EXPECT_EQ(engine.late_dropped, reference.late_dropped) << label;
  EXPECT_EQ(engine.late_absorbed, reference.late_absorbed) << label;
  ASSERT_EQ(engine.states.size(), reference.states.size()) << label;
  for (std::size_t i = 0; i < engine.states.size(); ++i) {
    ASSERT_EQ(engine.states[i], reference.states[i])
        << label << ": closed window #" << i << " differs";
    ASSERT_TRUE(same_events(engine.events[i], reference.events[i]))
        << label << ": closed window #" << i << " kept other events";
  }
}

TEST(SlidingWindowTest, TumblingWindowLifecycleAndMetrics) {
  WindowConfig config;
  config.width = 100;
  config.watermark_lag = 10;
  config.rate_bins = 10;
  SlidingWindow engine(config);

  std::vector<TaskEvent> batch = {
      make_event(5, TaskEventType::kSubmit, 1, 0, 2),
      make_event(7, TaskEventType::kSchedule, 1, 0, 2, 42),
      make_event(20, TaskEventType::kSubmit, 2, 0, 9),
      make_event(25, TaskEventType::kSchedule, 2, 0, 9, 42),
      make_event(57, TaskEventType::kFinish, 1, 0, 2, 42),
  };
  engine.ingest(batch);
  // Watermark is 57 - 10: window [0, 100) still open.
  EXPECT_EQ(engine.windows_closed(), 0u);
  ASSERT_NE(engine.find(0), nullptr);
  EXPECT_FALSE(engine.find(0)->closed);
  EXPECT_EQ(engine.find(1), nullptr);

  // An event at 115 closes window 0 (watermark 105 >= 100).
  std::vector<TaskEvent> next = {
      make_event(115, TaskEventType::kFinish, 2, 0, 9, 42),
  };
  engine.ingest(next);
  ASSERT_EQ(engine.windows_closed(), 1u);
  const WindowStats* w0 = engine.find(0);
  ASSERT_NE(w0, nullptr);
  EXPECT_TRUE(w0->closed);
  EXPECT_EQ(w0->start, 0);
  EXPECT_EQ(w0->end, 100);
  EXPECT_EQ(w0->events.total(), 5);
  EXPECT_EQ(w0->events.total(TaskEventType::kSubmit), 2);
  EXPECT_EQ(w0->events.submits_in_band(trace::PriorityBand::kLow), 1);
  EXPECT_EQ(w0->events.submits_in_band(trace::PriorityBand::kHigh), 1);
  // Task (1,0): scheduled at 7, finished at 57 -> run duration 50.
  ASSERT_EQ(w0->task_length.count(), 1u);
  EXPECT_DOUBLE_EQ(w0->task_length.min(), 50.0);
  // Job 1 fully done at 57, first submit 5 -> job length 52.
  ASSERT_EQ(w0->job_length.count(), 1u);
  EXPECT_DOUBLE_EQ(w0->job_length.min(), 52.0);
  // One submission gap: 20 - 5 = 15.
  ASSERT_EQ(w0->submit_gap.count(), 1u);
  EXPECT_DOUBLE_EQ(w0->submit_gap_moments.mean(), 15.0);
  // At close, task (2,0) is still running on machine 42.
  EXPECT_EQ(w0->pending_at_close, 0);
  EXPECT_EQ(w0->running_at_close, 1);
  EXPECT_EQ(w0->hosts_seen, 1);
  ASSERT_EQ(w0->host_load.count(), 1u);
  EXPECT_DOUBLE_EQ(w0->host_load.max(), 1.0);
  // Rate bins: submits at 5 and 20 land in sub-bins 0 and 2.
  EXPECT_EQ(w0->rate_bins[0], 1);
  EXPECT_EQ(w0->rate_bins[2], 1);

  engine.flush();
  EXPECT_EQ(engine.windows_closed(), 2u);
  const WindowStats* w1 = engine.find(1);
  ASSERT_NE(w1, nullptr);
  // Window [100, 200): the finish of task (2,0), run 115 - 25 = 90.
  EXPECT_EQ(w1->events.total(), 1);
  ASSERT_EQ(w1->task_length.count(), 1u);
  EXPECT_DOUBLE_EQ(w1->task_length.min(), 90.0);
  EXPECT_EQ(w1->running_at_close, 0);
  EXPECT_EQ(w1->hosts_seen, 0);
  EXPECT_FALSE(engine.health().lossy());
}

/// Two running tasks with the same task index in jobs whose ids differ
/// by 2^32 are two tasks: each end takes its own schedule time, and
/// neither end counts as a death from pending. (Google clusterdata job
/// ids exceed 2^32.)
TEST(SlidingWindowTest, JobIdsBeyond32BitsKeepTheirOwnRunningTasks) {
  const std::int64_t job_a = 7;
  const std::int64_t job_b = 7 + (std::int64_t{1} << 32);
  WindowConfig config;
  config.width = 100;
  config.watermark_lag = 0;
  SlidingWindow engine(config);
  engine.ingest(std::vector<TaskEvent>{
      make_event(10, TaskEventType::kSubmit, job_a, 0, 2),
      make_event(10, TaskEventType::kSubmit, job_b, 0, 2),
      make_event(20, TaskEventType::kSchedule, job_a, 0, 2, 1),
      make_event(30, TaskEventType::kSchedule, job_b, 0, 2, 2),
      make_event(50, TaskEventType::kFinish, job_a, 0, 2, 1),
      make_event(150, TaskEventType::kFinish, job_b, 0, 2, 2),
  });
  engine.flush();
  ASSERT_EQ(engine.windows_closed(), 2u);
  const WindowStats* w0 = engine.find(0);
  const WindowStats* w1 = engine.find(1);
  ASSERT_NE(w0, nullptr);
  ASSERT_NE(w1, nullptr);
  // Window [0, 100): job_a's task ran 20 -> 50; job_b's still runs.
  ASSERT_EQ(w0->task_length.count(), 1u);
  EXPECT_DOUBLE_EQ(w0->task_length.min(), 30.0);
  EXPECT_EQ(w0->running_at_close, 1);
  EXPECT_EQ(w0->pending_at_close, 0);
  // Window [100, 200): job_b's task ran 30 -> 150, and nothing runs.
  ASSERT_EQ(w1->task_length.count(), 1u);
  EXPECT_DOUBLE_EQ(w1->task_length.min(), 120.0);
  EXPECT_EQ(w1->running_at_close, 0);
  EXPECT_EQ(w1->hosts_seen, 0);
  EXPECT_EQ(w0->task_length.count() + w1->task_length.count(), 2u);
}

TEST(SlidingWindowTest, OverlappingWindowsAssignEventsToEverySlide) {
  WindowConfig config;
  config.width = 100;
  config.slide = 50;
  config.watermark_lag = 0;
  SlidingWindow engine(config);
  // t=75 belongs to [0,100) and [50,150).
  std::vector<TaskEvent> batch = {
      make_event(75, TaskEventType::kSubmit, 1, 0),
      make_event(300, TaskEventType::kSubmit, 2, 0),
  };
  engine.ingest(batch);
  engine.flush();
  const WindowStats* w0 = engine.find(0);
  const WindowStats* w1 = engine.find(1);
  const WindowStats* w2 = engine.find(2);
  ASSERT_NE(w0, nullptr);
  ASSERT_NE(w1, nullptr);
  ASSERT_NE(w2, nullptr);
  EXPECT_EQ(w0->events.total(), 1);
  EXPECT_EQ(w1->events.total(), 1);
  EXPECT_EQ(w2->events.total(), 0);  // [100,200) sees neither
  // t=300 belongs to [250,350) and [300,400): windows 5 and 6.
  EXPECT_EQ(engine.find(4)->events.total(), 0);
  EXPECT_EQ(engine.find(5)->events.total(), 1);
  EXPECT_EQ(engine.find(6)->events.total(), 1);
}

TEST(SlidingWindowTest, LateEventsAreCountedAndDroppedOrAbsorbed) {
  for (const LatePolicy policy :
       {LatePolicy::kDrop, LatePolicy::kAbsorbOldest}) {
    WindowConfig config;
    config.width = 100;
    config.watermark_lag = 0;
    config.late_policy = policy;
    SlidingWindow engine(config);
    engine.ingest(std::vector<TaskEvent>{
        make_event(250, TaskEventType::kSubmit, 1, 0),
    });
    // Windowing starts at the first event's window [200,300): windows 0
    // and 1 never exist, so an event at t=30 is late.
    ASSERT_EQ(engine.windows_closed(), 0u);
    engine.ingest(std::vector<TaskEvent>{
        make_event(30, TaskEventType::kSubmit, 2, 0),
    });
    engine.flush();
    EXPECT_EQ(engine.windows_closed(), 1u);
    EXPECT_EQ(engine.find(0), nullptr);
    if (policy == LatePolicy::kDrop) {
      EXPECT_EQ(engine.health().late_dropped, 1u);
      EXPECT_TRUE(engine.health().lossy());
      EXPECT_EQ(engine.find(2)->events.total(), 1);
    } else {
      EXPECT_EQ(engine.health().late_absorbed, 1u);
      EXPECT_FALSE(engine.health().lossy());
      // Absorbed into the oldest open window at ingest time: window 2.
      EXPECT_EQ(engine.find(2)->events.total(), 2);
    }
  }
}

/// Streaming metrics over one whole-trace window must agree with the
/// batch kernels: identical sample counts (so identical quantile ranks)
/// and quantiles within the sketch's relative error bound.
TEST(SlidingWindowTest, StreamingMatchesBatchKernelsWithinSketchBound) {
  gen::GoogleModelConfig model_config;
  // Full task sampling: the generator keeps Job records complete even
  // when task records are sampled, so event-derived job lengths only
  // match the batch job_lengths() at sampling rate 1.0.
  model_config.task_sampling_rate = 1.0;
  const trace::TraceSet workload =
      gen::GoogleWorkloadModel(model_config)
          .generate_workload(util::kSecondsPerDay / 2);
  const std::vector<TaskEvent> events = stream::synthesize_events(workload);
  ASSERT_FALSE(events.empty());

  const double alpha = 0.01;
  WindowConfig config;
  config.width = 4 * util::kSecondsPerDay;  // one window covers the trace
  config.relative_error = alpha;
  SlidingWindow engine(config);
  // Feed in bounded batches, as the daemon would.
  for (std::size_t i = 0; i < events.size(); i += 4096) {
    const std::size_t n = std::min<std::size_t>(4096, events.size() - i);
    engine.ingest(std::span<const TaskEvent>(events).subspan(i, n));
  }
  engine.flush();
  ASSERT_EQ(engine.windows_closed(), 1u);
  const WindowStats& w = *engine.latest();

  const std::vector<double> batch_job_lengths = workload.job_lengths();
  const std::vector<double> batch_task_lengths =
      workload.task_run_durations();
  const std::vector<double> batch_gaps = workload.submission_intervals();
  ASSERT_EQ(w.job_length.count(), batch_job_lengths.size());
  ASSERT_EQ(w.task_length.count(), batch_task_lengths.size());
  ASSERT_EQ(w.submit_gap.count(), batch_gaps.size());

  const stats::Ecdf job_ecdf(batch_job_lengths);
  const stats::Ecdf task_ecdf(batch_task_lengths);
  const stats::Ecdf gap_ecdf(batch_gaps);
  for (const double q : {0.10, 0.50, 0.90, 0.99}) {
    EXPECT_LE(std::abs(w.job_length.quantile(q) - job_ecdf.quantile(q)),
              alpha * job_ecdf.quantile(q) + 1e-9)
        << "job length q=" << q;
    EXPECT_LE(std::abs(w.task_length.quantile(q) - task_ecdf.quantile(q)),
              alpha * task_ecdf.quantile(q) + 1e-9)
        << "task length q=" << q;
    EXPECT_LE(std::abs(w.submit_gap.quantile(q) - gap_ecdf.quantile(q)),
              alpha * gap_ecdf.quantile(q) + 1e-9)
        << "submission gap q=" << q;
  }
  // The gap mean is tracked exactly (Welford, not bucketed).
  EXPECT_NEAR(w.submit_gap_moments.mean(), gap_ecdf.mean(),
              1e-9 * gap_ecdf.mean());
  // Priority-mix counts are exact: one SUBMIT per task.
  EXPECT_EQ(w.events.total(TaskEventType::kSubmit),
            static_cast<std::int64_t>(workload.tasks().size()));
  EXPECT_FALSE(engine.health().lossy());
}

/// The whole engine state — every sketch bit of every window — must be
/// identical at 1 worker and at 8, for identical batching.
TEST(SlidingWindowTest, StateIsBitIdenticalAcrossThreadCounts) {
  gen::GoogleModelConfig model_config;
  model_config.task_sampling_rate = 0.05;
  const trace::TraceSet workload =
      gen::GoogleWorkloadModel(model_config)
          .generate_workload(util::kSecondsPerDay / 2);
  const std::vector<TaskEvent> events = stream::synthesize_events(workload);

  const auto run = [&events](util::ThreadPool* pool) {
    exec::ScopedPool scoped(pool);
    WindowConfig config;
    config.width = util::kSecondsPerHour;
    config.slide = util::kSecondsPerHour / 2;
    SlidingWindow engine(config);
    for (std::size_t i = 0; i < events.size(); i += 2048) {
      const std::size_t n = std::min<std::size_t>(2048, events.size() - i);
      engine.ingest(std::span<const TaskEvent>(events).subspan(i, n));
    }
    engine.flush();
    return closed_state(engine);
  };
  util::ThreadPool one(1);
  util::ThreadPool many(8);
  const std::string state_one = run(&one);
  const std::string state_many = run(&many);
  ASSERT_FALSE(state_one.empty());
  EXPECT_EQ(state_one, state_many);
}

TEST(SlidingWindowTest, FaultInjectionDegradesDeterministically) {
  gen::GoogleModelConfig model_config;
  model_config.task_sampling_rate = 0.05;
  const trace::TraceSet workload =
      gen::GoogleWorkloadModel(model_config)
          .generate_workload(util::kSecondsPerDay / 4);
  const std::vector<TaskEvent> events = stream::synthesize_events(workload);

  fault::configure("stream.drop:p=0.05,seed=9;stream.dup:p=0.02,seed=10");
  const auto run = [&events] {
    WindowConfig config;
    config.width = util::kSecondsPerHour;
    SlidingWindow engine(config);
    engine.ingest(events);
    engine.flush();
    return std::pair(engine.health(), closed_state(engine));
  };
  const auto [health_a, state_a] = run();
  const auto [health_b, state_b] = run();
  fault::configure("");

  EXPECT_GT(health_a.faults_dropped, 0u);
  EXPECT_GT(health_a.faults_duplicated, 0u);
  EXPECT_TRUE(health_a.lossy());
  // Same spec, same stream -> identical damage and identical state.
  EXPECT_EQ(health_a.faults_dropped, health_b.faults_dropped);
  EXPECT_EQ(health_a.faults_duplicated, health_b.faults_duplicated);
  EXPECT_EQ(state_a, state_b);

  // And a disarmed run over the same events is clean.
  WindowConfig config;
  config.width = util::kSecondsPerHour;
  SlidingWindow clean(config);
  clean.ingest(events);
  clean.flush();
  EXPECT_FALSE(clean.health().lossy());
  EXPECT_EQ(clean.events_ingested(), events.size());
}

TEST(SlidingWindowTest, SpillHookSeesEveryClosedWindowInOrder) {
  WindowConfig config;
  config.width = 100;
  config.watermark_lag = 0;
  config.keep_events = true;
  SlidingWindow engine(config);
  std::vector<std::int64_t> spilled;
  std::size_t spilled_events = 0;
  engine.set_spill([&](const WindowStats& ws,
                       std::span<const TaskEvent> events) {
    spilled.push_back(ws.index);
    spilled_events += events.size();
  });
  engine.ingest(std::vector<TaskEvent>{
      make_event(10, TaskEventType::kSubmit, 1, 0),
      make_event(120, TaskEventType::kSubmit, 2, 0),
      make_event(340, TaskEventType::kSubmit, 3, 0),
  });
  engine.flush();
  EXPECT_EQ(spilled, (std::vector<std::int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(spilled_events, 3u);
}

/// The pane engine against the per-window reference: every closed
/// window's canonical state byte-equal, across window shapes, late
/// policies, batch sizes and worker counts, and on a hand-built stream
/// with an event late for its oldest window only.
TEST(SlidingWindowTest, PanesMatchPerWindowOracle) {
  gen::GoogleModelConfig model_config;
  model_config.task_sampling_rate = 0.05;
  const trace::TraceSet workload =
      gen::GoogleWorkloadModel(model_config)
          .generate_workload(util::kSecondsPerDay);
  const std::vector<TaskEvent> ordered = stream::synthesize_events(workload);
  ASSERT_FALSE(ordered.empty());
  // Disordered copy: one event in 20 arrives up to two hours behind its
  // neighbours, far past the watermark lag, so it is late for some or
  // all of the windows covering it.
  std::vector<TaskEvent> disordered = ordered;
  std::mt19937_64 rng(7);
  for (TaskEvent& event : disordered) {
    if (rng() % 20 == 0) {
      event.time = std::max<util::TimeSec>(
          0, event.time - static_cast<util::TimeSec>(
                              rng() % (2 * util::kSecondsPerHour)));
    }
  }
  // Placed copy: the generator leaves machine_id unset, so give every
  // task one of 40 machines — the close-time host walk then counts
  // busy hosts and prunes idle ones as the load moves.
  std::vector<TaskEvent> placed = ordered;
  for (TaskEvent& event : placed) {
    if (event.type != TaskEventType::kSubmit) {
      event.machine_id = (event.job_id * 7 + event.task_index) % 40;
    }
  }

  enum class Input { kOrdered, kDisordered, kPlaced };
  struct Case {
    std::string name;
    util::TimeSec width;
    util::TimeSec slide;
    std::size_t rate_bins;
    LatePolicy late;
    Input input;
  };
  const util::TimeSec hour = util::kSecondsPerHour;
  const util::TimeSec five_min = 5 * util::kSecondsPerMinute;
  const std::vector<Case> cases = {
      {"tumbling 1h", hour, 0, 60, LatePolicy::kDrop, Input::kOrdered},
      {"1h/5min", hour, five_min, 60, LatePolicy::kDrop, Input::kOrdered},
      {"1h/10min, 7 bins", hour, 2 * five_min, 7, LatePolicy::kDrop,
       Input::kOrdered},
      {"24h/5min", util::kSecondsPerDay, five_min, 60, LatePolicy::kDrop,
       Input::kOrdered},
      {"1h/5min disordered, drop", hour, five_min, 60, LatePolicy::kDrop,
       Input::kDisordered},
      {"1h/5min disordered, absorb", hour, five_min, 60,
       LatePolicy::kAbsorbOldest, Input::kDisordered},
      {"1h/5min on 40 hosts", hour, five_min, 60, LatePolicy::kDrop,
       Input::kPlaced},
  };
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  for (const Case& c : cases) {
    WindowConfig config;
    config.width = c.width;
    config.slide = c.slide;
    config.rate_bins = c.rate_bins;
    config.late_policy = c.late;
    const bool disorder = c.input == Input::kDisordered;
    config.keep_events = disorder;
    const std::span<const TaskEvent> events =
        disorder ? disordered : c.input == Input::kPlaced ? placed : ordered;
    for (const std::size_t batch : {std::size_t{777}, std::size_t{4096}}) {
      const RunRecord reference = run_reference(config, events, batch);
      ASSERT_GT(reference.states.size(), 1u);
      if (disorder) {
        EXPECT_GT(reference.late_dropped + reference.late_absorbed, 0u);
      }
      for (util::ThreadPool* pool : {&one, &eight}) {
        exec::ScopedPool scoped(pool);
        expect_same_run(run_engine(config, events, batch), reference,
                        c.name + ", batch " + std::to_string(batch) + ", " +
                            std::to_string(pool->size()) + " worker(s)");
      }
    }
  }

  // Hand-built: with 100 s windows sliding by 50 s and no lag, the
  // events at t=60 and t=65 in the second batch are late for window 0
  // (closed by t=120) but on time for window 1.
  const std::vector<TaskEvent> hand = {
      make_event(10, TaskEventType::kSubmit, 1, 0, 3),
      make_event(20, TaskEventType::kSchedule, 1, 0, 3, 7),
      make_event(120, TaskEventType::kSubmit, 2, 0, 9),
      make_event(60, TaskEventType::kFinish, 1, 0, 3, 7),
      make_event(65, TaskEventType::kSubmit, 3, 0, 5),
      make_event(130, TaskEventType::kSchedule, 2, 0, 9, 8),
      make_event(260, TaskEventType::kFinish, 2, 0, 9, 8),
  };
  for (const LatePolicy policy :
       {LatePolicy::kDrop, LatePolicy::kAbsorbOldest}) {
    WindowConfig config;
    config.width = 100;
    config.slide = 50;
    config.watermark_lag = 0;
    config.rate_bins = 8;
    config.late_policy = policy;
    config.keep_events = true;
    const RunRecord reference = run_reference(config, hand, 3);
    EXPECT_EQ(reference.late_dropped + reference.late_absorbed, 2u);
    expect_same_run(run_engine(config, hand, 3), reference,
                    policy == LatePolicy::kDrop ? "hand-built, drop"
                                                : "hand-built, absorb");
  }

  // Hand-built: the first batch's earliest event (t=20, pane 0) arrives
  // after an event in pane 2, so windowing must start at window 0, the
  // oldest window covering the earliest pane — not window 1, the oldest
  // covering the first event's pane. Nothing is late.
  const std::vector<TaskEvent> first_batch = {
      make_event(130, TaskEventType::kSubmit, 1, 0, 2),
      make_event(20, TaskEventType::kSubmit, 2, 0, 6),
      make_event(40, TaskEventType::kSchedule, 2, 0, 6, 7),
      make_event(140, TaskEventType::kSchedule, 1, 0, 2, 8),
      make_event(90, TaskEventType::kFinish, 2, 0, 6, 7),
      make_event(210, TaskEventType::kFinish, 1, 0, 2, 8),
  };
  for (const LatePolicy policy :
       {LatePolicy::kDrop, LatePolicy::kAbsorbOldest}) {
    WindowConfig config;
    config.width = 100;
    config.slide = 50;
    config.watermark_lag = 60;
    config.rate_bins = 8;
    config.late_policy = policy;
    config.keep_events = true;
    const RunRecord reference = run_reference(config, first_batch, 4);
    EXPECT_EQ(reference.late_dropped + reference.late_absorbed, 0u);
    EXPECT_EQ(reference.states.size(), 5u);  // windows 0 .. 4
    expect_same_run(run_engine(config, first_batch, 4), reference,
                    policy == LatePolicy::kDrop
                        ? "hand-built first batch, drop"
                        : "hand-built first batch, absorb");
  }
}

}  // namespace
}  // namespace cgc
