#include "trace/validate.hpp"

#include <algorithm>
#include <sstream>

#include "trace/lifecycle.hpp"

namespace cgc::trace {

namespace {

void check_events(const TraceSet& trace, std::vector<ValidationIssue>* out) {
  const std::span<const TaskEvent> events = trace.events();
  if (!std::ranges::is_sorted(events, {}, &TaskEvent::time)) {
    out->push_back({"events not sorted by time"});
    return;
  }
  std::vector<RefusedEvent> refused;
  replay_tasks(events, &refused);
  for (const RefusedEvent& r : refused) {
    std::ostringstream oss;
    oss << "illegal event " << event_name(r.event.type) << " for task "
        << r.event.job_id << "/" << r.event.task_index << " in state "
        << state_name(r.state) << " at t=" << r.event.time;
    out->push_back({oss.str()});
  }
}

void check_tasks(const TraceSet& trace, std::vector<ValidationIssue>* out) {
  for (const Task& t : trace.tasks()) {
    if (t.priority < kMinPriority || t.priority > kMaxPriority) {
      out->push_back({"task priority out of [1,12]"});
    }
    if (t.schedule_time >= 0 && t.schedule_time < t.submit_time) {
      out->push_back({"task scheduled before submission"});
    }
    if (t.end_time >= 0 && t.schedule_time >= 0 &&
        t.end_time < t.schedule_time) {
      out->push_back({"task ended before scheduling"});
    }
    if (t.cpu_request < 0 || t.mem_request < 0) {
      out->push_back({"negative resource request"});
    }
  }
}

void check_jobs(const TraceSet& trace, std::vector<ValidationIssue>* out) {
  for (const Job& j : trace.jobs()) {
    if (j.priority < kMinPriority || j.priority > kMaxPriority) {
      out->push_back({"job priority out of [1,12]"});
    }
    if (j.completed() && j.end_time < j.submit_time) {
      out->push_back({"job ends before submission"});
    }
    if (j.num_tasks <= 0) {
      out->push_back({"job with no tasks"});
    }
    const auto tasks = trace.tasks_for_job(j.job_id);
    for (const Task& t : tasks) {
      if (t.submit_time < j.submit_time) {
        out->push_back({"task submitted before its job"});
      }
      if (j.completed() && t.end_time > j.end_time) {
        out->push_back({"task outlives its completed job"});
      }
    }
  }
}

void check_host_load(const TraceSet& trace, double tolerance,
                     std::vector<ValidationIssue>* out) {
  for (const HostLoadSeries& h : trace.host_load()) {
    const auto machine = trace.machine_by_id(h.machine_id());
    if (!machine.has_value()) {
      out->push_back({"host-load series for unknown machine " +
                      std::to_string(h.machine_id())});
      continue;
    }
    if (machine->cpu_capacity <= 0 || machine->mem_capacity <= 0) {
      out->push_back({"non-positive machine capacity"});
      continue;
    }
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (h.cpu_total(i) > machine->cpu_capacity + tolerance) {
        std::ostringstream oss;
        oss << "CPU over capacity on machine " << h.machine_id() << " at t="
            << h.time_at(i) << " (" << h.cpu_total(i) << " > "
            << machine->cpu_capacity << ")";
        out->push_back({oss.str()});
        break;
      }
      if (h.mem_total(i) > machine->mem_capacity + tolerance) {
        std::ostringstream oss;
        oss << "memory over capacity on machine " << h.machine_id()
            << " at t=" << h.time_at(i);
        out->push_back({oss.str()});
        break;
      }
      if (h.running(i) < 0 || h.pending(i) < 0) {
        out->push_back({"negative queue count"});
        break;
      }
    }
  }
}

}  // namespace

std::vector<ValidationIssue> validate(const TraceSet& trace,
                                      double overload_tolerance) {
  std::vector<ValidationIssue> issues;
  check_events(trace, &issues);
  check_tasks(trace, &issues);
  check_jobs(trace, &issues);
  check_host_load(trace, overload_tolerance, &issues);
  return issues;
}

}  // namespace cgc::trace
