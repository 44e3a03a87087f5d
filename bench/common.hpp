// Shared infrastructure for the reproduction cases.
//
// Every CGC_BENCH case regenerates one table or figure of the paper:
// it builds (or loads from the on-disk cache) the standard traces,
// runs the corresponding analyzer, prints the series/rows, and prints a
// paper-vs-measured block that EXPERIMENTS.md quotes.
//
// Environment knobs:
//   CGC_BENCH_FAST=1      quarter-scale run (smoke-testing the harness)
//   CGC_BENCH_CACHE=DIR   host-load trace cache (default ./bench_cache)
//   CGC_BENCH_OUT=DIR     .dat output directory (default ./bench_out)
//   CGC_THREADS=N         worker count for parallel kernels (cgc::exec)
//
// Trace accessors return references into a process-wide memo: within
// one cgc_report process each standard trace is built exactly once, no
// matter how many cases consume it.
#pragma once

#include <cstdint>
#include <string>

#include "gen/google_model.hpp"
#include "gen/grid_model.hpp"
#include "sim/config.hpp"
#include "store/reader.hpp"
#include "trace/trace_set.hpp"

namespace cgc::bench {

/// True when CGC_BENCH_FAST is set: benches shrink to smoke-test scale.
bool fast_mode();

/// Scale knobs derived from fast_mode().
util::TimeSec workload_horizon();   ///< 30 d (fast: 4 d)
util::TimeSec hostload_horizon();   ///< 30 d (fast: 6 d)
std::size_t google_machines();      ///< 64 (fast: 24)
std::size_t grid_machines();        ///< 32 (fast: 12)

/// Output directory for .dat series (created on demand).
std::string out_dir();

/// Trace accessors below are memoized in-process and cached on disk
/// under CGC_BENCH_CACHE through the shared lease-guarded CGCS cache
/// (src/sweep/cache.hpp): concurrent shard workers build each entry at
/// most once fleet-wide and can never torn-write it, and every process
/// observes the identical published bytes (the reload-after-publish
/// contract that keeps sharded sweeps byte-identical to single-process
/// ones).

/// Google workload trace (Figs 2-6, Table I). Tasks are sampled at
/// `task_sampling_rate` to bound memory at month scale; the job stream
/// (and thus every job-level statistic: lengths, submission intervals,
/// per-job cpu/mem) is identical at any rate < 1.0 because sampling
/// drops task records after the RNG draw. The sweep standardizes on
/// 0.25 so all Google workload cases share one generation. Memoized
/// per sampling rate; the reference stays valid for the process
/// lifetime.
const trace::TraceSet& google_workload(double task_sampling_rate = 0.25);

/// Grid workload trace for a named preset. Memoized per system.
const trace::TraceSet& grid_workload(const std::string& name);

/// Simulated Google host-load trace (Figs 7-13, Tables II-III).
/// Memoized in-process and cached on disk under CGC_BENCH_CACHE between
/// invocations — the first consumer pays the simulation, later ones
/// reload the CGCS entry.
const trace::TraceSet& google_hostload();

/// Simulated grid host-load trace for "AuverGrid" or "SHARCNET"
/// (Fig 13 and the ext_* cases). Memoized and disk-cached like
/// google_hostload().
const trace::TraceSet& grid_hostload(const std::string& name);

/// Finds a preset by system name; throws on unknown names.
gen::GridSystemPreset preset_by_name(const std::string& name);

/// Prints the bench banner.
void print_header(const std::string& id, const std::string& title);

/// Prints one paper-vs-measured comparison row.
void print_comparison(const std::string& metric, const std::string& paper,
                      const std::string& measured);
void print_comparison(const std::string& metric, double paper,
                      double measured, int digits = 3);

/// Prints the section separator for the raw-series part of the output.
void print_series_note(const std::string& dat_hint);

/// Degraded-operation accounting aggregated across the process. The
/// trace cache feeds every store quarantine it observes in here;
/// cgc_report stamps the totals into report.json and turns a nonzero
/// total into a failing (1) exit code, so data loss is never silent
/// even when every case "succeeds".
struct IoHealth {
  std::uint64_t chunks_quarantined = 0;
  std::uint64_t rows_lost = 0;
  std::uint64_t values_defaulted = 0;
  /// Always 0: the cache reads no CSV. Kept so report.json keeps its
  /// `parse_lines_bad` key.
  std::uint64_t parse_lines_bad = 0;

  bool degraded() const {
    return chunks_quarantined != 0 || rows_lost != 0 ||
           values_defaulted != 0 || parse_lines_bad != 0;
  }
};

/// Folds a degraded store read's damage into the process-wide health.
void note_damage(const store::DamageReport& damage);

/// Snapshot of the process-wide degraded-operation accounting.
IoHealth io_health();

}  // namespace cgc::bench
