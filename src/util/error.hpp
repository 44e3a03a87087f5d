// The one TransientError/DataError/FatalError → exit-code mapping.
//
// Every binary in the repo exits with the same convention (see
// util/check.hpp): 0 ok, 1 failure (data/transient), 2 usage, 3 fatal.
// The mapping used to be re-derived per binary; it lives here now so a
// new error class changes one function, not four mains.
#pragma once

#include <exception>

namespace cgc::error {

/// Exit code for an exception that escaped main's try block:
/// cgc::util::FatalError → kExitFatal (3); everything else — including
/// DataError, TransientError that exhausted retries, and plain
/// std::exception — → kExitFailure (1).
int exit_code(const std::exception& e);

/// Exit code for the sharded drivers (cgc_report, cgc_plan), where the
/// caller's next action depends on the class: DataError (shard overlap,
/// digest disagreement, a --resume checkpoint of another experiment or
/// shard) → kExitConflict (2, human intervenes); TransientError
/// (torn/unfinished shard) → kExitFailure (1, resumable — rerun the
/// shard and merge again); FatalError → kExitFatal (3).
int merge_exit_code(const std::exception& e);

}  // namespace cgc::error
