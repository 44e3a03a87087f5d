#include "trace/gwa_format.hpp"

#include <fstream>
#include <sstream>

#include "util/check.hpp"
#include "util/file.hpp"

namespace cgc::trace {

void write_gwa(const TraceSet& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    throw util::TransientError("cannot open GWA file for writing: " + path);
  }
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
