#include "trace/swf_format.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/file.hpp"

namespace cgc::trace {

namespace {

/// One job-table row: the job and the single parallel task it becomes.
struct JobRow {
  Job job;
  Task task;
};

bool decode_job_row(Fields f, const detail::JobTableFormat& format,
                    JobRow* row) {
  if (f.size() < format.min_fields) {
    throw util::DataError(format.too_short);
  }
  const std::int64_t job_number = util::parse_int(f[0]);
  const std::int64_t submit = util::parse_int(f[1]);
  const std::int64_t wait = util::parse_int(f[2]);
  const double run_time = util::parse_double(f[3]);
  const std::int64_t procs = util::parse_int(f[4]);
  const double used_mem_kb = util::parse_double(f[6]);
  const std::int64_t status = util::parse_int(f[10]);

  Job& job = row->job;
  job = Job{};
  job.job_id = job_number;
  if (format.has_user) {
    const std::int64_t user = util::parse_int(f[11]);
    job.user_id = user < 0 ? 0 : user;
  }
  job.priority = 1;  // neither table has Google-style priorities
  job.submit_time = submit;
  const bool has_runtime = run_time >= 0.0;
  const TimeSec wait_s = wait < 0 ? 0 : wait;
  job.end_time = has_runtime
                     ? submit + wait_s + static_cast<TimeSec>(run_time)
                     : -1;
  job.num_tasks = 1;
  job.cpu_parallelism = procs > 0 ? static_cast<float>(procs) : 1.0f;
  const double job_mem_kb = format.memory_per_processor
                                ? used_mem_kb * job.cpu_parallelism
                                : used_mem_kb;
  job.mem_usage =
      used_mem_kb > 0.0 ? static_cast<float>(job_mem_kb / 1024.0) : 0.0f;

  Task& task = row->task;
  task = Task{};
  task.job_id = job_number;
  task.task_index = 0;
  task.priority = 1;
  task.submit_time = submit;
  task.schedule_time = has_runtime ? submit + wait_s : -1;
  task.end_time = job.end_time;
  // Status 1 = completed OK; anything else failed or was cancelled.
  task.end_event = status == 1 ? TaskEventType::kFinish : format.not_ok_end;
  task.cpu_request = job.cpu_parallelism;
  task.cpu_usage = job.cpu_parallelism;
  task.mem_usage = job.mem_usage;
  return true;
}

}  // namespace

TraceSet detail::read_job_table(const std::string& path,
                                const std::string& system_name,
                                const JobTableFormat& format,
                                const ParseOptions& options,
                                ParseReport* report) {
  TraceSet trace(system_name);
  trace.set_memory_in_mb(true);
  RecordLoop rows(path, util::Split::kWhitespace, options, report);
  const auto decode = [&format](Fields f, JobRow* row) {
    return decode_job_row(f, format, row);
  };
  JobRow row;
  while (rows.next(decode, &row)) {
    trace.add_job(row.job);
    trace.add_task(row.task);
  }
  trace.finalize();
  return trace;
}

void write_swf(const TraceSet& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    throw util::TransientError("cannot open SWF file for writing: " + path);
  }
  out << "; SWF written by cgc (" << trace.system_name() << ")\n";
  out << "; UnixStartTime: 0\n";
  for (const Job& j : trace.jobs()) {
    const TimeSec run = j.completed() ? j.length() : -1;
    std::ostringstream row;
    row << j.job_id << ' ' << j.submit_time << ' ' << 0 << ' ' << run << ' '
        << static_cast<std::int64_t>(j.cpu_parallelism) << ' ' << -1 << ' '
        << static_cast<std::int64_t>(
               j.mem_usage * 1024.0 /
               std::max(1.0f, j.cpu_parallelism))
        << ' ' << static_cast<std::int64_t>(j.cpu_parallelism) << ' ' << -1
        << ' ' << -1 << ' ' << (j.completed() ? 1 : 0) << ' ' << j.user_id
        << ' ' << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1
        << ' ' << -1;
    out << row.str() << '\n';
  }
  util::close_or_throw(out, path);
}

}  // namespace cgc::trace
