// Standard Workload Format (SWF) parser/writer — the Parallel Workload
// Archive format used by the paper's HPC traces (ANL, RICC, METACENTRUM,
// LLNL-Atlas).
//
// SWF is whitespace-separated, one job per line, 18 fields:
//   1 job_number  2 submit_time  3 wait_time  4 run_time
//   5 allocated_processors  6 avg_cpu_time_used  7 used_memory(KB/proc)
//   8 requested_processors  9 requested_time  10 requested_memory
//   11 status  12 user_id  13 group_id  14 executable  15 queue
//   16 partition  17 preceding_job  18 think_time
// Header lines start with ';'. Missing values are -1.
//
// Mapping into the data model: one SWF job -> one Job with
// cpu_parallelism = allocated processors and mem_usage converted to MB
// (used_memory is KB per processor); the job is also materialized as a
// single parallel Task so task-level analyses see Grid tasks.
#pragma once

#include <string>

#include "trace/parse_report.hpp"
#include "trace/trace_set.hpp"

namespace cgc::trace {

namespace detail {
/// The SWF parser behind load_trace (trace/loader.hpp), which is the
/// one way to read a trace.
TraceSet read_swf_impl(const std::string& path,
                       const std::string& system_name,
                       const ParseOptions& options, ParseReport* report);
}  // namespace detail

/// Writes jobs of `trace` as SWF (fields we do not track are -1).
/// Throws util::TransientError naming `path` when a write fails.
void write_swf(const TraceSet& trace, const std::string& path);

}  // namespace cgc::trace
