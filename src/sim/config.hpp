// Simulator configuration.
//
// Every field below is a modeling or engineering knob of ClusterSim;
// each is documented where it is declared (CI enforces this for all
// public sim headers — see tools/cgc_lint.py --check doc-coverage). Defaults
// model the paper's Google cluster; GridWorkloadModel overrides the
// noise knobs for the steady Grid hosts (Fig 13).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/time_util.hpp"

namespace cgc::sim {

/// Machine-selection policy when several machines can host a task.
/// The paper describes Google's scheduler as using "the best resources
/// first, in order to optimally balance the resource demands across
/// machines" — kBalanced models that; the others exist for ablation.
enum class PlacementPolicy : std::uint8_t {
  kBalanced = 0,  ///< minimize resulting max relative utilization
  kBestFit = 1,   ///< minimize leftover slack (tightest packing)
  kWorstFit = 2,  ///< maximize leftover slack (spread load)
  kFirstFit = 3,  ///< first machine that fits (by index)
  kRandom = 4,    ///< uniformly random among fitting machines
};

/// Short stable name of a placement policy ("balanced", "best-fit", ...).
std::string_view placement_name(PlacementPolicy policy);

struct SimConfig {
  /// Usage sampling period; the Google trace reports every 5 minutes.
  /// Samples are taken at t = 0, period, 2*period, ... strictly before
  /// the horizon, and a sample at time t observes the cluster *before*
  /// any event at t is processed (an arrival at t=0 is not visible in
  /// the t=0 sample). Must be positive.
  util::TimeSec sample_period = util::kSamplePeriod;
  /// Simulation horizon (exclusive): events at or after it are not
  /// processed and the last sample lies strictly before it, so a run
  /// records exactly horizon / sample_period samples per machine.
  /// Tasks still running at the horizon stay open (end_time = -1),
  /// matching trace-boundary truncation. Must be positive.
  util::TimeSec horizon = util::kSecondsPerMonth;
  /// Machine-selection policy (see PlacementPolicy). Parks of up to 512
  /// machines are scanned exhaustively (the seed behaviour); larger ones
  /// probe 96 candidates counter-hashed from (seed, task, schedule
  /// pass), so placement is O(probes) and deterministic at any
  /// CGC_THREADS.
  PlacementPolicy placement = PlacementPolicy::kBalanced;
  /// Allow high-priority tasks to evict lower-priority ones (both
  /// capacity eviction when nothing fits, and isolation eviction below).
  bool preemption = true;
  /// Admission: total assigned memory must stay below this fraction of
  /// capacity — models the kernel/system overhead the paper infers from
  /// max memory usage saturating near 90% of capacity (Fig 7c).
  double mem_admission_headroom = 0.92;
  /// Low-priority (best-effort) tasks may overcommit memory up to this
  /// fraction of capacity, soaking up the slack that mid/high-priority
  /// arrivals reclaim by eviction — the structural source of the EVICT
  /// events in Fig 8 (Google's best-effort tier works the same way).
  double mem_overcommit_low_priority = 0.97;
  /// Admission limit for the sum of CPU requests relative to capacity.
  double cpu_admission_limit = 1.0;
  /// Per-sample multiplicative jitter (sigma of a lognormal factor) on
  /// task CPU usage — Cloud tasks are interactive and noisy, Grid tasks
  /// steady; this is the knob behind the Fig 13 noise comparison.
  double cpu_usage_jitter = 0.25;
  /// Same for memory (memory footprints are far steadier).
  double mem_usage_jitter = 0.08;
  /// Machine-level multiplicative jitter applied to the whole CPU sample
  /// of a host (co-tenant/daemon interference, correlated across tasks).
  /// This is what lets hosts transiently saturate — the clamped spikes
  /// reproduce the max-load mass at capacity in Fig 7a — and it drives
  /// the host-level noise compared in Fig 13.
  /// Defaults model a noisy multi-tenant Cloud host; grid clusters
  /// override via GridWorkloadModel::apply_grid_sim_defaults.
  double machine_cpu_jitter = 0.20;
  /// Machine-level lognormal jitter on the host's memory sample.
  double machine_mem_jitter = 0.05;
  /// Transient whole-machine CPU spikes (system daemons, log rotation,
  /// co-scheduled maintenance): with this per-sample probability the
  /// machine's CPU sample is multiplied by cpu_spike_factor (then
  /// clamped at capacity). These clamped spikes are what put the Fig 7a
  /// max-load mass exactly at the capacity line.
  double cpu_spike_probability = 0.004;
  /// Multiplier applied to a spiking machine's CPU sample.
  double cpu_spike_factor = 2.0;
  /// Mean delay before a failed task is resubmitted (exponential,
  /// truncated below at 1 s).
  util::TimeSec resubmit_delay_mean = 2 * util::kSecondsPerMinute;
  /// Evicted tasks always return to the pending queue after exactly
  /// this delay (the Borg-style "re-admit shortly after preemption"
  /// path; no randomness — eviction churn stays deterministic).
  util::TimeSec evict_requeue_delay = 180;
  /// Isolation eviction: when a mid/high-priority task is placed on a
  /// machine running strictly-lower-priority work, it evicts the lowest-
  /// priority neighbor with this probability — Borg-style preemption for
  /// latency/interference isolation, the steady EVICT stream of Fig 8
  /// (capacity-pressure eviction still happens on top of this).
  double isolation_eviction_probability = 0.45;
  /// Scheduler pass budget: after this many consecutive placement
  /// failures within one priority queue, the rest of that queue is
  /// skipped until the next pass and spliced back untouched, in O(1).
  /// Tasks are near-interchangeable in size, so a long failure streak
  /// means the cluster is full; the cap bounds a pass to O(tried *
  /// machines) rather than O(pending * machines), where "tried" is the
  /// tasks placed plus at most this many failures per priority.
  std::size_t max_schedule_failures_per_pass = 48;
  /// Record the full task-event stream (disable to save memory on very
  /// large runs). With the counter-based RNG, toggling any record_*
  /// knob never changes the simulated dynamics — only what is kept.
  bool record_events = true;
  /// Record per-machine HostLoadSeries. Disabling also skips the
  /// sampling computation entirely (sampling is observation-only).
  bool record_host_load = true;
  /// Materialize per-task and per-job records into the TraceSet.
  bool record_tasks = true;
  /// Root seed for every stochastic decision. All randomness is
  /// counter-based (sim/sim_rng.hpp): draws are pure functions of
  /// (seed, site, stable keys), never of execution order.
  std::uint64_t seed = 42;
};

}  // namespace cgc::sim
