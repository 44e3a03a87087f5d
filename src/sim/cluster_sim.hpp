// Discrete-event cluster simulator.
//
// Implements the scheduling model the paper describes for the Google
// cluster (Section II): one global scheduler, 12 priorities, FCFS within
// a priority, higher priorities processed first and able to preempt
// (evict) lower ones, "best" resources chosen to balance demand across
// machines. Tasks follow the unsubmitted -> pending -> running -> dead
// state machine with SUBMIT/SCHEDULE/{EVICT,FAIL,FINISH,KILL,LOST}
// events and optional resubmission (Figure 1).
//
// Output is a TraceSet: the full task-event stream, per-task and per-job
// records, and per-machine HostLoadSeries sampled every 5 minutes — the
// inputs to every host-load analyzer (Figs 7-13, Tables II-III).
//
// The engine is built for paper scale (a month over 12.5k hosts,
// tens of millions of task events — see `bench_perf sim` / BENCH_sim.json):
// a calendar event queue (sim/event_queue.hpp), struct-of-arrays state
// banks (sim/state_banks.hpp), counter-based randomness
// (sim/sim_rng.hpp), and cgc::exec-sharded host-load sampling.
// Results are bit-identical at any CGC_THREADS — the same
// determinism contract as cgc::exec and cgc::stream; DESIGN.md §13 has
// the argument. Hot-loop metric sites (sim.*) arm via CGC_METRICS, and
// the deterministic fault sites sim.task_lost / sim.machine_outage arm
// via CGC_FAULT_SPEC.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/task_spec.hpp"
#include "trace/trace_set.hpp"

namespace cgc::sim {

/// Aggregate counters exposed after a run (also used by tests).
struct SimStats {
  /// Tasks whose first SUBMIT fell inside the horizon.
  std::int64_t submitted = 0;
  /// SCHEDULE events (placements, counting re-placements).
  std::int64_t scheduled = 0;
  /// FINISH terminal events.
  std::int64_t finished = 0;
  /// FAIL terminal events (each failed attempt counts).
  std::int64_t failed = 0;
  /// KILL terminal events.
  std::int64_t killed = 0;
  /// EVICT events (preemptions).
  std::int64_t evicted = 0;
  /// LOST terminal events.
  std::int64_t lost = 0;
  /// Times any task re-entered the pending queue (evictions + retries).
  std::int64_t resubmits = 0;
  /// Tasks still pending when the horizon closed.
  std::int64_t never_scheduled = 0;
  /// Tasks still running when the horizon closed.
  std::int64_t running_at_horizon = 0;
  /// High-water mark of the global pending-queue depth.
  std::int64_t max_pending_depth = 0;
  /// Queue events processed (submits, requeues, attempt ends) — the
  /// numerator of `bench_perf sim`'s events/s.
  std::int64_t events_processed = 0;
  /// Scheduler passes run (each scans the 12 priority FIFOs once).
  std::int64_t schedule_passes = 0;
  /// Fault-site firings (sim.task_lost + sim.machine_outage); 0 unless
  /// CGC_FAULT_SPEC armed a sim.* site.
  std::int64_t faults_injected = 0;

  /// Number of log2 queue-wait buckets (covers 0 s through ~17k years).
  static constexpr int kWaitBuckets = 40;
  /// Queue-wait histogram over SCHEDULE events: bucket 0 counts
  /// zero-second waits, bucket i >= 1 counts waits in [2^(i-1), 2^i)
  /// seconds (the last bucket absorbs the overflow). Integer counts of
  /// integer waits, so the histogram — and every quantile derived from
  /// it — is bit-identical at any CGC_THREADS.
  std::int64_t wait_histogram[kWaitBuckets] = {};
  /// SCHEDULE events accounted in wait_histogram (== scheduled).
  std::int64_t wait_count = 0;
  /// Sum of all recorded waits in seconds (mean = wait_sum_s / count).
  std::int64_t wait_sum_s = 0;

  /// Buckets `wait_s` (pending → placement delay) into wait_histogram.
  void record_wait(std::int64_t wait_s) {
    int bucket = 0;
    if (wait_s > 0) {
      while (bucket + 1 < kWaitBuckets &&
             (std::int64_t{1} << bucket) <= wait_s) {
        ++bucket;
      }
    }
    ++wait_histogram[bucket];
    ++wait_count;
    wait_sum_s += wait_s > 0 ? wait_s : 0;
  }

  /// Queue-wait quantile as the upper edge of the bucket holding the
  /// q-th placement (0 for bucket 0) — a deterministic upper bound with
  /// 2x resolution, not an interpolated value. Returns 0 when no waits
  /// were recorded.
  double wait_quantile(double q) const {
    if (wait_count <= 0) {
      return 0.0;
    }
    std::int64_t target = static_cast<std::int64_t>(
        q * static_cast<double>(wait_count));
    if (target >= wait_count) {
      target = wait_count - 1;
    }
    std::int64_t seen = 0;
    for (int b = 0; b < kWaitBuckets; ++b) {
      seen += wait_histogram[b];
      if (seen > target) {
        return b == 0 ? 0.0 : static_cast<double>(std::int64_t{1} << b);
      }
    }
    return static_cast<double>(std::int64_t{1} << (kWaitBuckets - 1));
  }

  /// Mean queue wait in seconds (0 when nothing was placed).
  double wait_mean_s() const {
    return wait_count <= 0 ? 0.0
                           : static_cast<double>(wait_sum_s) /
                                 static_cast<double>(wait_count);
  }

  /// Fraction of placements whose wait landed in a bucket entirely at
  /// or below `threshold_s` — the conservative (lower-bound) SLO
  /// attainment used by cgc::plan's $/SLO score.
  double wait_fraction_within(double threshold_s) const {
    if (wait_count <= 0) {
      return 1.0;
    }
    std::int64_t within = 0;
    for (int b = 0; b < kWaitBuckets; ++b) {
      const double upper =
          b == 0 ? 0.0 : static_cast<double>(std::int64_t{1} << b);
      if (upper <= threshold_s) {
        within += wait_histogram[b];
      }
    }
    return static_cast<double>(within) / static_cast<double>(wait_count);
  }

  /// Terminal events of any kind (the paper's "task endings").
  std::int64_t terminal_events() const {
    return finished + failed + killed + evicted + lost;
  }
  /// Fraction of terminal events that are abnormal (paper: 59.2%).
  double abnormal_fraction() const {
    const std::int64_t t = terminal_events();
    return t == 0 ? 0.0
                  : static_cast<double>(t - finished) /
                        static_cast<double>(t);
  }
};

/// Runs the simulation of `workload` over `machines`.
///
/// The returned TraceSet is finalized and contains machines, events
/// (if config.record_events), tasks and jobs (if config.record_tasks),
/// and host-load series (if config.record_host_load).
class ClusterSim {
 public:
  /// Validates that `machines` is non-empty; capacities are checked at
  /// run() time.
  ClusterSim(std::vector<trace::Machine> machines, SimConfig config);

  /// Simulates the workload; callable once per instance.
  trace::TraceSet run(const Workload& workload,
                      const std::string& system_name = "simulated");

  /// Statistics of the completed run.
  const SimStats& stats() const { return stats_; }

 private:
  struct Impl;
  std::vector<trace::Machine> machines_;
  SimConfig config_;
  SimStats stats_;
  bool used_ = false;
};

}  // namespace cgc::sim
