// cgc::obs — low-overhead observability: process-wide metrics and
// tracing spans for the measurement stack itself.
//
// The paper's pipelines are measurement code; this layer measures the
// measurement. Two orthogonal facilities share one arming discipline
// (the same as cgc::fault): when neither CGC_METRICS nor CGC_TRACE is
// set, the entire cost of an instrumentation site is one relaxed atomic
// load of a process-wide flag — no registry lookup, no allocation, no
// clock read. Mytkowicz et al. ("Producing Wrong Data Without Doing
// Anything Obviously Wrong") is the cautionary tale: an observer whose
// overhead is not bounded and measured perturbs the numbers it reports.
//
//   * Metrics (obs/metrics.hpp): counters, gauges, and log2-bucketed
//     histograms in a process-wide registry. Counters of logical work
//     items (chunks decoded, regions run) are deterministic across
//     CGC_THREADS because the work split itself is (cgc::exec plans
//     chunks independently of the worker count). CGC_METRICS=<path>
//     writes the registry as JSON at exit ("-" streams to stderr).
//   * Spans (obs/span.hpp): RAII begin/end events attributed to the
//     emitting thread, buffered per thread (one uncontended mutex per
//     emit) and exported as Chrome trace-event JSON. CGC_TRACE=<path>
//     writes a file loadable in chrome://tracing or Perfetto at exit.
//
// Arming is read from the environment once, before the first enabled()
// observer; tests use configure(). Export is non-draining, so calling
// export_now() early and again at exit is safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace cgc::obs {

namespace detail {
extern std::atomic<bool> g_metrics_armed;
extern std::atomic<bool> g_trace_armed;
}  // namespace detail

/// True when the metrics registry records. One relaxed load; this is
/// the entire cost of a metric site in an uninstrumented run.
inline bool metrics_enabled() {
  return detail::g_metrics_armed.load(std::memory_order_relaxed);
}

/// True when spans are recorded. Same single-relaxed-load discipline.
inline bool trace_enabled() {
  return detail::g_trace_armed.load(std::memory_order_relaxed);
}

/// True when either facility is armed.
inline bool enabled() { return metrics_enabled() || trace_enabled(); }

/// Monotonic nanoseconds (steady clock) — the timebase for histograms
/// of durations and for span timestamps.
std::uint64_t now_ns();

/// (Re)arms the facilities programmatically; tests use this. The
/// environment (CGC_METRICS / CGC_TRACE) is installed automatically at
/// startup and also sets the export paths; configure() only flips the
/// arming flags.
void configure(bool metrics, bool spans);

/// Export destinations from the environment ("" when unset).
std::string metrics_path();
std::string trace_path();

/// Writes the armed facilities to their configured paths. Non-draining
/// and idempotent: buffers and registry values are left intact, so the
/// atexit export after an early explicit call rewrites the same data.
/// No-op for a facility without a path.
void export_now();

/// Serializes every recorded span as Chrome trace-event JSON
/// ({"traceEvents": [{"ph": "X", ...}]}), sorted by start time so the
/// output is stable for a given set of spans. Timestamps are
/// microseconds relative to the earliest recorded span.
void write_chrome_trace(std::ostream& out);

}  // namespace cgc::obs
