#include "trace/gwa_format.hpp"

#include <fstream>
#include <sstream>

#include "fault/fault.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/file.hpp"

namespace cgc::trace {

TraceSet detail::read_gwa_impl(const std::string& path,
                               const std::string& system_name,
                               const ParseOptions& options,
                               ParseReport* report) {
  std::ifstream in(path);
  CGC_CHECK_MSG(in.good(), "cannot open GWA file: " + path);
  TraceSet trace(system_name);
  trace.set_memory_in_mb(true);

  std::string line;
  std::vector<std::string_view> fields;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (fault::armed()) {
      // I/O failures are not a property of the record, so they bypass
      // tolerant accounting and propagate even in tolerant mode.
      fault::maybe_throw("io.read", line_number, fault::ErrorKind::kTransient);
    }
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty() || line.front() == ';' || line.front() == '#') {
      continue;
    }
    // GWF is whitespace separated; normalize tabs to spaces and split.
    fields.clear();
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) {
        ++i;
      }
      if (i >= line.size()) {
        break;
      }
      const std::size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
        ++i;
      }
      fields.push_back(std::string_view(line).substr(start, i - start));
    }
    try {
      if (fault::armed()) {
        fault::maybe_throw("trace.parse_line", line_number);
      }
      CGC_CHECK_MSG(fields.size() >= 11,
                    "GWA row needs >= 11 fields (truncated record?)");

      const std::int64_t job_id = util::parse_int(fields[0]);
      const std::int64_t submit = util::parse_int(fields[1]);
      const std::int64_t wait = util::parse_int(fields[2]);
      const double run_time = util::parse_double(fields[3]);
      const std::int64_t procs = util::parse_int(fields[4]);
      const double used_mem_kb = util::parse_double(fields[6]);
      const std::int64_t status = util::parse_int(fields[10]);

      Job job;
      job.job_id = job_id;
      job.priority = 1;
      job.submit_time = submit;
      const TimeSec wait_s = wait < 0 ? 0 : wait;
      job.end_time = run_time >= 0.0
                         ? submit + wait_s + static_cast<TimeSec>(run_time)
                         : -1;
      job.num_tasks = 1;
      job.cpu_parallelism = procs > 0 ? static_cast<float>(procs) : 1.0f;
      job.mem_usage =
          used_mem_kb > 0.0 ? static_cast<float>(used_mem_kb / 1024.0) : 0.0f;
      trace.add_job(job);

      Task task;
      task.job_id = job_id;
      task.task_index = 0;
      task.priority = 1;
      task.submit_time = submit;
      task.schedule_time = run_time >= 0.0 ? submit + wait_s : -1;
      task.end_time = job.end_time;
      task.end_event =
          status == 1 ? TaskEventType::kFinish : TaskEventType::kFail;
      task.cpu_request = job.cpu_parallelism;
      task.cpu_usage = job.cpu_parallelism;
      task.mem_usage = job.mem_usage;
      trace.add_task(task);
      if (report != nullptr) {
        ++report->records_ok;
      }
    } catch (const util::TransientError&) {
      throw;  // an I/O-class failure, not a bad record
    } catch (const util::Error& e) {
      detail::handle_bad_line(options, report, path, line_number, e.what());
    }
  }
  CGC_CHECK_MSG(!in.bad(), "I/O error while reading " + path);
  trace.finalize();
  return trace;
}

void write_gwa(const TraceSet& trace, const std::string& path) {
  std::ofstream out(path);
  CGC_CHECK_MSG(out.good(), "cannot open GWA file for writing: " + path);
  out << "; GWA written by cgc (" << trace.system_name() << ")\n";
  for (const Job& j : trace.jobs()) {
    const TimeSec run = j.completed() ? j.length() : -1;
    out << j.job_id << ' ' << j.submit_time << " 0 " << run << ' '
        << static_cast<std::int64_t>(j.cpu_parallelism) << " -1 "
        << static_cast<std::int64_t>(j.mem_usage * 1024.0) << ' '
        << static_cast<std::int64_t>(j.cpu_parallelism)
        << " -1 -1 " << (j.completed() ? 1 : 0) << '\n';
  }
  util::close_or_throw(out, path);
}

}  // namespace cgc::trace
