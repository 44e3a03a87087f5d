// Grid Workload Archive (GWA/.gwf) parser/writer — the format of the
// paper's Grid traces (AuverGrid, NorduGrid, SHARCNET, DAS-2).
//
// GWF is whitespace-separated with ';'-prefixed headers; the standard
// field order (first 11 of 29):
//   1 JobID  2 SubmitTime  3 WaitTime  4 RunTime  5 NProcs
//   6 AverageCPUTimeUsed  7 UsedMemory(KB)  8 ReqNProcs  9 ReqTime
//   10 ReqMemory  11 Status (1=completed)
// Missing values are -1.
#pragma once

#include <string>

#include "trace/swf_format.hpp"
#include "trace/trace_set.hpp"

namespace cgc::trace {

namespace detail {
/// GWA as a job table for read_job_table: no user id, used memory is
/// the job's total, and a status other than 1 is a FAIL.
inline constexpr JobTableFormat kGwaTable = {
    11, "GWA row needs >= 11 fields (truncated record?)", false, false,
    TaskEventType::kFail};
}  // namespace detail

/// Writes jobs of `trace` in GWA layout. Throws util::TransientError
/// naming `path` when a write fails.
void write_gwa(const TraceSet& trace, const std::string& path);

}  // namespace cgc::trace
