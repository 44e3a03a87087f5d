#include "trace/trace_set.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace cgc::trace {

void TraceSet::add_machine(Machine machine) {
  machines_.push_back(machine);
  finalized_ = false;
}

void TraceSet::add_job(Job job) {
  jobs_.push_back(job);
  finalized_ = false;
}

void TraceSet::add_task(Task task) {
  tasks_.push_back(task);
  finalized_ = false;
}

void TraceSet::add_event(TaskEvent event) {
  events_.push_back(event);
  finalized_ = false;
}

void TraceSet::add_host_load(HostLoadSeries series) {
  host_load_.push_back(std::move(series));
  finalized_ = false;
}

void TraceSet::adopt_jobs(std::vector<Job> jobs) {
  jobs_ = std::move(jobs);
  finalized_ = false;
}

void TraceSet::adopt_tasks(std::vector<Task> tasks) {
  tasks_ = std::move(tasks);
  finalized_ = false;
}

void TraceSet::adopt_events(std::vector<TaskEvent> events) {
  events_ = std::move(events);
  finalized_ = false;
}

void TraceSet::adopt_machines(std::vector<Machine> machines) {
  machines_ = std::move(machines);
  finalized_ = false;
}

void TraceSet::adopt_host_load(std::vector<HostLoadSeries> series) {
  host_load_ = std::move(series);
  finalized_ = false;
}

void TraceSet::finalize() {
  // Each sort is skipped when the data is already ordered: already-final
  // inputs (columnar store round-trips, re-finalize after set_duration)
  // then pay one linear scan instead of a full sort.
  const auto event_less = [](const TaskEvent& a, const TaskEvent& b) {
    return a.time < b.time;
  };
  if (!std::is_sorted(events_.begin(), events_.end(), event_less)) {
    std::stable_sort(events_.begin(), events_.end(), event_less);
  }
  const auto task_order = [](const Task& t) { return task_key(t); };
  if (!std::ranges::is_sorted(tasks_, {}, task_order)) {
    std::ranges::sort(tasks_, {}, task_order);
  }
  // Tie-break on job_id so the order is deterministic regardless of
  // insertion order (round-trips through the columnar store reproduce
  // the exact vector).
  const auto job_less = [](const Job& a, const Job& b) {
    if (a.submit_time != b.submit_time) {
      return a.submit_time < b.submit_time;
    }
    return a.job_id < b.job_id;
  };
  if (!std::is_sorted(jobs_.begin(), jobs_.end(), job_less)) {
    std::sort(jobs_.begin(), jobs_.end(), job_less);
  }

  machine_index_.clear();
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    machine_index_[machines_[i].machine_id] = i;
  }
  host_load_index_.clear();
  for (std::size_t i = 0; i < host_load_.size(); ++i) {
    host_load_index_[host_load_[i].machine_id()] = i;
  }

  if (duration_ == 0) {
    TimeSec last = 0;
    for (const TaskEvent& e : events_) {
      last = std::max(last, e.time);
    }
    for (const Job& j : jobs_) {
      last = std::max({last, j.submit_time, j.end_time});
    }
    duration_ = last;
  }
  finalized_ = true;
}

void TraceSet::require_finalized() const {
  CGC_CHECK_MSG(finalized_, "TraceSet::finalize() must be called first");
}

std::optional<Machine> TraceSet::machine_by_id(std::int64_t machine_id) const {
  require_finalized();
  const auto it = machine_index_.find(machine_id);
  if (it == machine_index_.end()) {
    return std::nullopt;
  }
  return machines_[it->second];
}

const HostLoadSeries* TraceSet::host_load_for(std::int64_t machine_id) const {
  require_finalized();
  const auto it = host_load_index_.find(machine_id);
  return it == host_load_index_.end() ? nullptr : &host_load_[it->second];
}

std::span<const Task> TraceSet::tasks_for_job(std::int64_t job_id) const {
  require_finalized();
  // finalize() sorts tasks by (job_id, task_index), so a job's tasks are
  // one contiguous run: two binary searches, no per-job index.
  const auto first = std::partition_point(
      tasks_.begin(), tasks_.end(),
      [job_id](const Task& t) { return t.job_id < job_id; });
  const auto last = std::partition_point(
      first, tasks_.end(),
      [job_id](const Task& t) { return t.job_id == job_id; });
  return {first, last};
}

TraceSummary TraceSet::summary() const {
  TraceSummary s;
  s.num_jobs = jobs_.size();
  s.num_tasks = tasks_.size();
  s.num_events = events_.size();
  s.num_machines = machines_.size();
  s.duration = duration_;
  for (const HostLoadSeries& h : host_load_) {
    s.num_samples += h.size();
  }
  std::size_t terminal = 0;
  std::size_t abnormal = 0;
  for (const TaskEvent& e : events_) {
    if (is_terminal(e.type)) {
      ++terminal;
      if (is_abnormal(e.type)) {
        ++abnormal;
      }
    }
  }
  s.abnormal_completion_fraction =
      terminal == 0 ? 0.0
                    : static_cast<double>(abnormal) /
                          static_cast<double>(terminal);
  return s;
}

std::vector<double> TraceSet::job_lengths() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const Job& j : jobs_) {
    if (j.completed()) {
      out.push_back(static_cast<double>(j.length()));
    }
  }
  return out;
}

std::vector<double> TraceSet::task_run_durations() const {
  std::vector<double> out;
  out.reserve(tasks_.size());
  for (const Task& t : tasks_) {
    if (t.schedule_time >= 0 && t.end_time >= 0) {
      out.push_back(static_cast<double>(t.run_duration()));
    }
  }
  return out;
}

namespace {

/// FNV-1a over 64-bit words; every field is widened to a word first so
/// the digest depends only on logical content, never on struct padding.
struct Digest {
  std::uint64_t h = util::kFnvOffsetBasis;

  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = util::fnv1a_byte(h, static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { word(static_cast<std::uint64_t>(v)); }
  void f32(float v) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    word(bits);
  }
};

}  // namespace

std::uint64_t TraceSet::content_digest() const {
  Digest d;
  d.i64(static_cast<std::int64_t>(duration_));
  for (const Machine& m : machines_) {
    d.i64(m.machine_id);
    d.f32(m.cpu_capacity);
    d.f32(m.mem_capacity);
    d.f32(m.page_cache_capacity);
    d.word(m.attributes);
  }
  for (const TaskEvent& e : events_) {
    d.i64(e.time);
    d.i64(e.job_id);
    d.i64(e.task_index);
    d.i64(e.machine_id);
    d.word(static_cast<std::uint64_t>(e.type));
    d.word(e.priority);
  }
  for (const Task& t : tasks_) {
    d.i64(t.job_id);
    d.i64(t.task_index);
    d.word(t.priority);
    d.i64(t.submit_time);
    d.i64(t.schedule_time);
    d.i64(t.end_time);
    d.word(static_cast<std::uint64_t>(t.end_event));
    d.i64(t.machine_id);
    d.i64(t.resubmits);
    d.f32(t.cpu_request);
    d.f32(t.mem_request);
    d.f32(t.cpu_usage);
    d.f32(t.mem_usage);
  }
  for (const Job& j : jobs_) {
    d.i64(j.job_id);
    d.word(j.priority);
    d.i64(j.submit_time);
    d.i64(j.end_time);
    d.i64(j.num_tasks);
    d.f32(j.cpu_parallelism);
    d.f32(j.mem_usage);
  }
  for (const HostLoadSeries& s : host_load_) {
    d.i64(s.machine_id());
    d.i64(s.start());
    d.i64(s.period());
    for (std::size_t i = 0; i < s.size(); ++i) {
      for (std::size_t b = 0; b < kNumBands; ++b) {
        const auto band = static_cast<PriorityBand>(b);
        d.f32(s.cpu(band, i));
        d.f32(s.mem(band, i));
      }
      d.f32(s.mem_assigned(i));
      d.f32(s.page_cache(i));
      d.i64(s.running(i));
      d.i64(s.pending(i));
    }
  }
  return d.h;
}

std::vector<double> TraceSet::job_submit_times() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const Job& j : jobs_) {
    out.push_back(static_cast<double>(j.submit_time));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> TraceSet::submission_intervals() const {
  const std::vector<double> times = job_submit_times();
  std::vector<double> out;
  if (times.size() < 2) {
    return out;
  }
  out.reserve(times.size() - 1);
  for (std::size_t i = 1; i < times.size(); ++i) {
    out.push_back(times[i] - times[i - 1]);
  }
  return out;
}

std::vector<double> TraceSet::jobs_per_hour() const {
  CGC_CHECK_MSG(duration_ > 0, "trace duration unknown");
  const auto num_hours = static_cast<std::size_t>(
      (duration_ + util::kSecondsPerHour - 1) / util::kSecondsPerHour);
  std::vector<double> counts(std::max<std::size_t>(num_hours, 1), 0.0);
  for (const Job& j : jobs_) {
    const auto hour = static_cast<std::size_t>(
        std::clamp<TimeSec>(j.submit_time / util::kSecondsPerHour, 0,
                            static_cast<TimeSec>(counts.size()) - 1));
    counts[hour] += 1.0;
  }
  return counts;
}

std::vector<double> TraceSet::job_cpu_usage() const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const Job& j : jobs_) {
    out.push_back(static_cast<double>(j.cpu_parallelism));
  }
  return out;
}

std::vector<double> TraceSet::job_mem_usage(double max_capacity_gb) const {
  std::vector<double> out;
  out.reserve(jobs_.size());
  for (const Job& j : jobs_) {
    double mem = static_cast<double>(j.mem_usage);
    if (!memory_in_mb_ && max_capacity_gb > 0.0) {
      mem *= max_capacity_gb * 1024.0;  // normalized -> MB
    }
    out.push_back(mem);
  }
  return out;
}

}  // namespace cgc::trace
