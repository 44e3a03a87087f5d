#include "trace/google_format.hpp"

#include <filesystem>
#include <map>

#include "trace/lifecycle.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

namespace cgc::trace {

namespace {

// TaskEventType's values are the clusterdata event codes 0-7, so the
// enum is the code table: the writer emits static_cast<int>(type).
static_assert(static_cast<int>(TaskEventType::kUpdate) == 7 &&
              kNumTaskEventTypes == 8);

/// clusterdata event code -> TaskEventType. Code 8 (UPDATE_RUNNING)
/// reads as kUpdate, like 7 (UPDATE_PENDING).
TaskEventType event_from_code(std::int64_t code) {
  if (code < 0 || code > 8) {
    throw util::DataError("unknown task event code " + std::to_string(code));
  }
  return code == 8 ? TaskEventType::kUpdate
                   : static_cast<TaskEventType>(code);
}

constexpr std::int64_t kMicrosPerSecond = 1'000'000;

}  // namespace

void write_task_events(const TraceSet& trace, const std::string& path) {
  util::CsvWriter out(path);
  // Constant columns are set once: missing_info [1], user [6] (opaque
  // in the public trace), scheduling class [7] = 0, requests and
  // constraint flag [9..12]. Constructing them (not assigning string
  // literals per row) also sidesteps a GCC 12 -Wrestrict false positive.
  std::vector<std::string> row = {"", "", "", "", "", "", "",
                                  "0", "", "", "", "", ""};
  for (const TaskEvent& e : trace.events()) {
    row[0] = std::to_string(e.time * kMicrosPerSecond);
    row[2] = std::to_string(e.job_id);
    row[3] = std::to_string(e.task_index);
    row[4] = e.machine_id < 0 ? std::string() : std::to_string(e.machine_id);
    row[5] = std::to_string(static_cast<int>(e.type));
    row[8] = std::to_string(static_cast<int>(e.priority) - 1);
    out.write_record(row);
  }
  out.close();
}

void write_machine_events(const TraceSet& trace, const std::string& path) {
  util::CsvWriter out(path);
  // Every machine is added at time 0 [0] with event ADD [2].
  std::vector<std::string> row = {"0", "", "0", "", "", ""};
  for (const Machine& m : trace.machines()) {
    row[1] = std::to_string(m.machine_id);
    // The public trace's opaque platform_id carries our attribute bits.
    row[3] = std::to_string(static_cast<int>(m.attributes));
    row[4] = util::format_double(m.cpu_capacity);
    row[5] = util::format_double(m.mem_capacity);
    out.write_record(row);
  }
  out.close();
}

void write_host_usage(const TraceSet& trace, const std::string& path) {
  util::CsvWriter out(path);
  std::vector<std::string> row(12);
  for (const HostLoadSeries& h : trace.host_load()) {
    for (std::size_t i = 0; i < h.size(); ++i) {
      row[0] = std::to_string(h.machine_id());
      row[1] = std::to_string(h.time_at(i));
      row[2] = util::format_double(h.cpu(PriorityBand::kLow, i));
      row[3] = util::format_double(h.cpu(PriorityBand::kMid, i));
      row[4] = util::format_double(h.cpu(PriorityBand::kHigh, i));
      row[5] = util::format_double(h.mem(PriorityBand::kLow, i));
      row[6] = util::format_double(h.mem(PriorityBand::kMid, i));
      row[7] = util::format_double(h.mem(PriorityBand::kHigh, i));
      row[8] = util::format_double(h.mem_assigned(i));
      row[9] = util::format_double(h.page_cache(i));
      row[10] = std::to_string(h.running(i));
      row[11] = std::to_string(h.pending(i));
      out.write_record(row);
    }
  }
  out.close();
}

void write_trace_window(const TraceSet& trace, const std::string& path) {
  util::CsvWriter out(path);
  out.write_record({std::to_string(trace.duration() * kMicrosPerSecond)});
  out.close();
}

void write_google_trace(const TraceSet& trace, const std::string& directory) {
  std::filesystem::create_directories(directory);
  write_task_events(trace, directory + "/task_events.csv");
  write_machine_events(trace, directory + "/machine_events.csv");
  write_host_usage(trace, directory + "/host_usage.csv");
  write_trace_window(trace, directory + "/trace_window.csv");
}

bool decode_task_event(Fields f, TaskEvent* event) {
  if (f.size() < 9) {
    throw util::DataError("task_events row too short (truncated record?)");
  }
  event->time = util::parse_int(f[0]) / kMicrosPerSecond;
  event->job_id = util::parse_int(f[2]);
  event->task_index = static_cast<std::int32_t>(util::parse_int(f[3]));
  event->machine_id = f[4].empty() ? -1 : util::parse_int(f[4]);
  event->type = event_from_code(util::parse_int(f[5]));
  const std::int64_t file_priority = util::parse_int(f[8]);
  if (file_priority < 0 || file_priority >= kNumPriorities) {
    throw util::DataError("priority out of range");
  }
  event->priority = static_cast<std::uint8_t>(file_priority + 1);
  return true;
}

namespace {

/// machine_events row decoder: only ADD events carry the capacities we
/// keep, so any other event decodes to no record.
bool decode_machine(Fields f, Machine* m) {
  if (f.size() < 6) {
    throw util::DataError("machine_events row too short (truncated record?)");
  }
  if (util::parse_int(f[2]) != 0) {
    return false;
  }
  *m = Machine{};
  m->machine_id = util::parse_int(f[1]);
  if (!f[3].empty()) {
    m->attributes = static_cast<std::uint8_t>(util::parse_int(f[3]));
  }
  m->cpu_capacity = static_cast<float>(util::parse_double(f[4]));
  m->mem_capacity = static_cast<float>(util::parse_double(f[5]));
  return true;
}

/// One host_usage row, parsed whole before it touches any series.
struct HostSample {
  std::int64_t machine_id = 0;
  TimeSec time = 0;
  float cpu[kNumBands] = {};
  float mem[kNumBands] = {};
  float mem_assigned = 0.0f;
  float page_cache = 0.0f;
  std::int32_t running = 0;
  std::int32_t pending = 0;
};

bool decode_host_sample(Fields f, HostSample* s) {
  if (f.size() < 12) {
    throw util::DataError("host_usage row too short (truncated record?)");
  }
  s->machine_id = util::parse_int(f[0]);
  s->time = util::parse_int(f[1]);
  for (std::size_t b = 0; b < kNumBands; ++b) {
    s->cpu[b] = static_cast<float>(util::parse_double(f[2 + b]));
  }
  for (std::size_t b = 0; b < kNumBands; ++b) {
    s->mem[b] = static_cast<float>(util::parse_double(f[5 + b]));
  }
  s->mem_assigned = static_cast<float>(util::parse_double(f[8]));
  s->page_cache = static_cast<float>(util::parse_double(f[9]));
  s->running = static_cast<std::int32_t>(util::parse_int(f[10]));
  s->pending = static_cast<std::int32_t>(util::parse_int(f[11]));
  return true;
}

/// trace_window row decoder: the window length, whole seconds.
bool decode_window(Fields f, TimeSec* duration) {
  if (f.empty()) {
    throw util::DataError("trace_window row is empty");
  }
  *duration = util::parse_int(f[0]) / kMicrosPerSecond;
  if (*duration <= 0) {
    throw util::DataError("trace window must be positive");
  }
  return true;
}

void read_task_events(const std::string& path, TraceSet* trace,
                      const ParseOptions& options, ParseReport* report) {
  RecordLoop rows(path, util::Split::kComma, options, report);
  TaskEvent event;
  while (rows.next(decode_task_event, &event)) {
    trace->add_event(event);
  }
}

void read_machine_events(const std::string& path, TraceSet* trace,
                         const ParseOptions& options, ParseReport* report) {
  RecordLoop rows(path, util::Split::kComma, options, report);
  Machine machine;
  while (rows.next(decode_machine, &machine)) {
    trace->add_machine(machine);
  }
}

void read_host_usage(const std::string& path, TraceSet* trace,
                     const ParseOptions& options, ParseReport* report) {
  RecordLoop rows(path, util::Split::kComma, options, report);
  // Ordered by machine id: finalize() never reorders host-load series,
  // so the emission loop below fixes their order in the TraceSet — an
  // unordered map here would leak hash-iteration order into digests.
  std::map<std::int64_t, HostLoadSeries> series;
  HostSample s;
  while (rows.next(decode_host_sample, &s)) {
    auto [it, inserted] = series.try_emplace(s.machine_id, s.machine_id,
                                             s.time, util::kSamplePeriod);
    it->second.append(s.cpu, s.mem, s.mem_assigned, s.page_cache, s.running,
                      s.pending);
  }
  for (auto& [id, h] : series) {
    trace->add_host_load(std::move(h));
  }
}

void read_trace_window(const std::string& path, TraceSet* trace,
                       const ParseOptions& options, ParseReport* report) {
  RecordLoop rows(path, util::Split::kComma, options, report);
  TimeSec duration = 0;
  if (rows.next(decode_window, &duration)) {
    trace->set_duration(duration);
  }
}

}  // namespace

TraceSet detail::read_google_trace_impl(const std::string& directory,
                                        const std::string& system_name,
                                        const ParseOptions& options,
                                        ParseReport* report) {
  TraceSet trace(system_name);
  const std::string task_events_path = directory + "/task_events.csv";
  const std::string machine_events_path = directory + "/machine_events.csv";
  const std::string host_usage_path = directory + "/host_usage.csv";
  const std::string window_path = directory + "/trace_window.csv";

  if (!std::filesystem::exists(task_events_path)) {
    throw util::DataError("missing " + task_events_path);
  }
  read_task_events(task_events_path, &trace, options, report);
  if (std::filesystem::exists(machine_events_path)) {
    read_machine_events(machine_events_path, &trace, options, report);
  }
  if (std::filesystem::exists(host_usage_path)) {
    read_host_usage(host_usage_path, &trace, options, report);
  }
  if (std::filesystem::exists(window_path)) {
    read_trace_window(window_path, &trace, options, report);
  }
  trace.finalize();  // sort events by time before the replay
  std::vector<RefusedEvent> refused;
  trace.adopt_tasks(replay_tasks(trace.events(), &refused));
  trace.adopt_jobs(roll_up_jobs(trace.tasks()));
  if (!refused.empty()) {
    CGC_LOG(kWarn) << "skipped " << refused.size()
                   << " task event(s) illegal in their task's state, first "
                   << event_name(refused[0].event.type) << " in "
                   << state_name(refused[0].state);
  }
  trace.finalize();
  return trace;
}

}  // namespace cgc::trace
