// Error-handling primitives for the cgc library.
//
// Invariant violations and precondition failures throw cgc::util::Error,
// carrying the failed expression and source location. Following the C++
// Core Guidelines (I.5/I.6/E.x) we express preconditions as checks that
// throw rather than abort, so library users can recover.
#pragma once

#include <stdexcept>
#include <string>

namespace cgc::util {

/// Exception thrown by CGC_CHECK / CGC_CHECK_MSG on failure.
class Error : public std::runtime_error {
 public:
  /// Wraps a complete, human-readable failure message.
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Error taxonomy. Callers that recover (retry loops, degraded scans)
/// dispatch on these subclasses; everything still catches as Error.
///
/// TransientError — the operation may succeed if simply retried
/// (interrupted I/O, a busy resource, an injected transient fault).
class TransientError : public Error {
 public:
  using Error::Error;
};

/// DataError — the input itself is damaged or malformed (CRC mismatch,
/// truncated record, garbage field). Retrying cannot help; skipping and
/// accounting for the damaged region can.
class DataError : public Error {
 public:
  using Error::Error;
};

/// FatalError — the environment or configuration is unusable (bad
/// CGC_FAULT_SPEC, unwritable output directory). Abort, do not retry.
class FatalError : public Error {
 public:
  using Error::Error;
};

/// Process exit codes shared by every bench binary and tool:
///   0 ok · 1 case/data failure · 2 usage error · 3 fatal environment.
/// Merge-style drivers (cgc_report --merge/--spawn) reuse 2 as
/// kExitConflict: the inputs contradict each other (shard overlap,
/// digest disagreement) — like a usage error, a human must intervene,
/// and unlike 1 it is not fixed by rerunning a shard.
inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitConflict = 2;
inline constexpr int kExitFatal = 3;

namespace detail {
[[noreturn]] void fail_check(const char* expr, const char* file, int line,
                             const std::string& message);
}  // namespace detail

}  // namespace cgc::util

/// Check a precondition/invariant; throws cgc::util::Error on failure.
#define CGC_CHECK(expr)                                                    \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::cgc::util::detail::fail_check(#expr, __FILE__, __LINE__, "");      \
    }                                                                      \
  } while (false)

/// Check with an additional human-readable message (streams allowed via
/// std::string concatenation at the call site).
#define CGC_CHECK_MSG(expr, msg)                                           \
  do {                                                                     \
    if (!(expr)) {                                                         \
      ::cgc::util::detail::fail_check(#expr, __FILE__, __LINE__, (msg));   \
    }                                                                      \
  } while (false)
