// Trace validation: structural invariants a well-formed TraceSet must
// satisfy. Run by parsers' tests, by the simulator's tests (simulated
// traces must be valid by construction), and available to users loading
// third-party files.
#pragma once

#include <string>
#include <vector>

#include "trace/trace_set.hpp"

namespace cgc::trace {

/// One violated invariant.
struct ValidationIssue {
  std::string message;
};

/// Checks:
///  - events are time-ordered and every per-task event sequence follows
///    the transition table (next_state, replayed by replay_tasks; an
///    illegal event is reported and skipped),
///  - task times are ordered (submit <= schedule <= end),
///  - job windows cover their tasks' windows,
///  - priorities are in [1, 12],
///  - machine capacities are positive and host-load usage never exceeds
///    capacity by more than `overload_tolerance` (scheduler overshoot
///    within one sample period is tolerated),
///  - host-load series have consistent lengths/periods.
/// Returns all violations found (empty = valid).
std::vector<ValidationIssue> validate(const TraceSet& trace,
                                      double overload_tolerance = 1e-3);

}  // namespace cgc::trace
