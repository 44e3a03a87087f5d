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

#include "trace/parse_report.hpp"
#include "trace/trace_set.hpp"

namespace cgc::trace {

namespace detail {
/// The GWA parser behind load_trace (trace/loader.hpp), which is the
/// one way to read a trace.
TraceSet read_gwa_impl(const std::string& path,
                       const std::string& system_name,
                       const ParseOptions& options, ParseReport* report);
}  // namespace detail

/// Writes jobs of `trace` in GWA layout. Throws util::TransientError
/// naming `path` when a write fails.
void write_gwa(const TraceSet& trace, const std::string& path);

}  // namespace cgc::trace
